//! Infrastructure shared by every protocol implementation.
//!
//! * [`Scenario`] — the experiment description (cluster size, workload,
//!   network, faults, seeds) under which protocols are compared.
//! * [`SignedRequest`] — a client request carrying the client's signature.
//! * [`GenericClient`] — the requester client (dimension P6) shared by most
//!   protocols: closed-loop submission, reply collection against a
//!   protocol-specific quorum, retransmission.
//! * [`Execution`], [`SlotLog`], [`Intake`], [`ViewGate`], [`ViewChange`] —
//!   the parts of Figure 1's replica lifecycle that do not vary between
//!   protocols: in-order execution of the committed-slot log with replies,
//!   request intake with retransmission answers and the τ2 leader watch,
//!   view-tagged message admission, and the PBFT-pattern view change
//!   (`ViewChanger`: a protocol supplies what it reports, how its new
//!   leader assembles and how it adopts one re-proposal).
//! * [`launch`] / [`launch_with_clients`] — build the engine, install
//!   replicas and clients, run to completion.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use bft_core::workload::{Workload, WorkloadConfig};
use bft_crypto::sign::PartyId;
use bft_crypto::{digest_of, CryptoCostModel, CryptoOp, KeyStore, Signature};
use bft_sim::{
    Actor, AdversarySpec, Context, Engine, EngineKind, FaultPlan, NetworkConfig, NetworkModel,
    NodeId, Observation, RunOutcome, SimDuration, SimTime, Simulation, Stage, ThreadedEngine,
    TimerId,
};
use bft_state::{Snapshot, StateMachine};
use bft_types::{
    ClientId, Digest, Op, QuorumRules, ReplicaId, Reply, Request, RequestId, SeqNum, TimerKind,
    Transaction, View, WireSize,
};

/// A client request plus the client's signature over it.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct SignedRequest {
    /// The request.
    pub request: Request,
    /// Client signature over the request.
    pub sig: Signature,
}

impl SignedRequest {
    /// Sign a request on behalf of a client.
    pub fn new(store: &KeyStore, request: Request) -> SignedRequest {
        let signer = store.signer_for(PartyId::client(request.id.client.0));
        let sig = signer.sign_value(&request);
        SignedRequest { request, sig }
    }

    /// Verify the client signature.
    pub fn verify(&self, store: &KeyStore) -> bool {
        bft_crypto::sign::verify_value(store, &self.request, &self.sig)
    }

    /// Digest identifying the request.
    pub fn digest(&self) -> Digest {
        digest_of(&self.request)
    }
}

impl WireSize for SignedRequest {
    fn wire_size(&self) -> usize {
        self.request.wire_size() + Signature::WIRE_SIZE
    }
}

/// The experiment scenario: everything about a run except the protocol.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Fault threshold.
    pub f: usize,
    /// Override the replica count (defaults to the protocol's formula).
    pub n_override: Option<usize>,
    /// Number of clients.
    pub clients: usize,
    /// Requests each client issues (closed loop).
    pub requests_per_client: u64,
    /// Network configuration.
    pub network: NetworkConfig,
    /// Crash/partition schedule.
    pub faults: FaultPlan,
    /// Byzantine adversary placements: compromised replicas whose wire
    /// traffic the simulator intercepts (equivocation, censorship, delay,
    /// replay, corruption) — protocol-agnostic, see [`bft_sim::adversary`].
    pub adversaries: Vec<AdversarySpec>,
    /// Transaction mix.
    pub workload: WorkloadConfig,
    /// Master seed (drives network delays, workload, crypto keys).
    pub seed: u64,
    /// Crypto cost model charged to virtual time.
    pub cost_model: CryptoCostModel,
    /// Checkpoint interval in sequence numbers (0 = disabled).
    pub checkpoint_interval: u64,
    /// Requests per batch.
    pub batch_size: usize,
    /// Virtual-time budget for the run.
    pub max_time: SimDuration,
    /// Event-queue scheduler backing the simulation. Both options pop in
    /// the identical order, so this never changes a run's output — only
    /// wall-clock cost at scale.
    pub scheduler: bft_sim::SchedulerKind,
    /// Which execution backend runs the scenario. Defaults to
    /// [`EngineKind::Sim`] (deterministic, virtual time); the threaded
    /// engine trades determinism, fault plans and adversaries for real
    /// wall-clock measurement.
    pub engine: EngineKind,
}

impl Scenario {
    /// A small fault-free LAN scenario: f = 1, one client, 50 requests.
    pub fn small(f: usize) -> Scenario {
        Scenario {
            f,
            n_override: None,
            clients: 1,
            requests_per_client: 50,
            network: NetworkConfig::lan(),
            faults: FaultPlan::none(),
            adversaries: Vec::new(),
            workload: WorkloadConfig::uniform(),
            seed: 42,
            cost_model: CryptoCostModel::free(),
            checkpoint_interval: 16,
            batch_size: 1,
            max_time: SimDuration::from_secs(60),
            scheduler: bft_sim::SchedulerKind::default(),
            engine: EngineKind::default(),
        }
    }

    /// Builder-style: set clients and per-client request count.
    pub fn with_load(mut self, clients: usize, requests_per_client: u64) -> Scenario {
        self.clients = clients;
        self.requests_per_client = requests_per_client;
        self
    }

    /// Builder-style: override the replica count (clamped up to each
    /// protocol's formula minimum, see [`Scenario::n`]).
    pub fn with_n(mut self, n: usize) -> Scenario {
        self.n_override = Some(n);
        self
    }

    /// Builder-style: set the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Scenario {
        self.faults = faults;
        self
    }

    /// Builder-style: set the Byzantine adversary placements.
    pub fn with_adversaries(mut self, adversaries: Vec<AdversarySpec>) -> Scenario {
        self.adversaries = adversaries;
        self
    }

    /// Builder-style: set the network.
    pub fn with_network(mut self, network: NetworkConfig) -> Scenario {
        self.network = network;
        self
    }

    /// Builder-style: set the workload.
    pub fn with_workload(mut self, workload: WorkloadConfig) -> Scenario {
        self.workload = workload;
        self
    }

    /// Builder-style: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Builder-style: set the crypto cost model.
    pub fn with_cost_model(mut self, cost_model: CryptoCostModel) -> Scenario {
        self.cost_model = cost_model;
        self
    }

    /// Builder-style: set the batch size.
    pub fn with_batch(mut self, batch_size: usize) -> Scenario {
        self.batch_size = batch_size;
        self
    }

    /// Builder-style: set the event-queue scheduler.
    pub fn with_scheduler(mut self, scheduler: bft_sim::SchedulerKind) -> Scenario {
        self.scheduler = scheduler;
        self
    }

    /// Builder-style: set the execution engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Scenario {
        self.engine = engine;
        self
    }

    /// The replica count for a protocol whose formula minimum is `min_n`.
    pub fn n(&self, min_n: usize) -> usize {
        self.n_override.map_or(min_n, |n| n.max(min_n))
    }

    /// The key store all parties in this scenario share.
    pub fn key_store(&self) -> Arc<KeyStore> {
        let mut master = [0u8; 32];
        master[..8].copy_from_slice(&self.seed.to_le_bytes());
        KeyStore::shared(master)
    }

    /// Build the execution engine the scenario selects ([`Scenario::engine`]):
    /// the deterministic simulation shell (network, seed, cost model, fault
    /// plan) or the real-time threaded engine.
    ///
    /// `n` is the replica count the protocol is about to install; the fault
    /// plan is validated against it (and the client count) so a plan naming
    /// nonexistent nodes fails loudly instead of silently never firing.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's fault plan or an adversary placement is
    /// invalid — see [`FaultPlan::validate`](bft_sim::faults::FaultPlan::validate)
    /// and [`AdversarySpec::validate`] — or if a threaded scenario carries
    /// a fault plan or adversaries (sim-only features: the threaded engine
    /// has no deterministic event stream to inject them into).
    pub fn build_engine<M: WireSize + serde::Serialize + Send + Sync + 'static>(
        &self,
        n: usize,
    ) -> Engine<M> {
        match self.engine {
            EngineKind::Sim => {
                let mut sim = Simulation::with_scheduler(
                    NetworkModel::new(self.network.clone()),
                    self.seed,
                    self.scheduler,
                );
                sim.set_cost_model(self.cost_model);
                if let Err(e) = self.faults.apply(&mut sim, n, self.clients as u64) {
                    panic!("scenario has an invalid fault plan: {e}");
                }
                for spec in &self.adversaries {
                    if let Err(e) = spec.validate(n, self.clients as u64) {
                        panic!("scenario has an invalid adversary placement: {e}");
                    }
                    sim.install_adversary(spec.clone());
                }
                Engine::Sim(Box::new(sim))
            }
            EngineKind::Threaded => {
                assert!(
                    self.faults.events.is_empty(),
                    "fault plans are a sim-engine feature; the threaded engine cannot run them"
                );
                assert!(
                    self.adversaries.is_empty(),
                    "wire adversaries are a sim-engine feature; the threaded engine cannot run them"
                );
                let mut eng = ThreadedEngine::new(self.network.delta, self.seed);
                eng.set_cost_model(self.cost_model);
                Engine::Threaded(eng)
            }
        }
    }

    /// Total requests across all clients.
    pub fn total_requests(&self) -> u64 {
        self.clients as u64 * self.requests_per_client
    }

    /// Workload generator for one client (each client gets a distinct
    /// stream).
    pub fn workload_for(&self, client: u64) -> Workload {
        Workload::for_stream(
            self.workload,
            self.seed.wrapping_mul(31).wrapping_add(client),
            client,
        )
    }

    /// The full request table the scenario's clients will generate:
    /// client ids are `0..clients`, timestamps `1..=requests_per_client`,
    /// transactions drawn deterministically from [`Scenario::workload_for`].
    /// Feeds the semantic checkers (phantom resolution and replay).
    pub fn request_txns(&self) -> std::collections::BTreeMap<RequestId, Transaction> {
        let mut txns = std::collections::BTreeMap::new();
        for c in 0..self.clients as u64 {
            let mut w = self.workload_for(c);
            for ts in 1..=self.requests_per_client {
                txns.insert(
                    RequestId {
                        client: ClientId(c),
                        timestamp: ts,
                    },
                    w.next_txn(),
                );
            }
        }
        txns
    }
}

/// Where a generic client sends its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitPolicy {
    /// Send to the believed leader; on retransmit, broadcast (PBFT rule).
    LeaderThenBroadcast,
    /// Always broadcast to all replicas (rotating-leader and fair
    /// protocols).
    Broadcast,
}

/// Hooks a protocol provides to use [`GenericClient`].
pub trait ClientProtocol: Send + 'static {
    /// The protocol's message type.
    type Msg: WireSize + Clone + serde::Serialize + Send + Sync + 'static;

    /// Wrap a signed request for submission.
    fn wrap_request(req: SignedRequest) -> Self::Msg;

    /// Extract a reply, if this message is one.
    fn unwrap_reply(msg: &Self::Msg) -> Option<&Reply>;

    /// Submission policy.
    const SUBMIT: SubmitPolicy;

    /// The reply quorum for the given rules: `f+1` matching replies unless
    /// the protocol says otherwise.
    fn reply_quorum(q: &QuorumRules) -> usize {
        q.weak()
    }
}

/// One open-loop request in flight: its payload, submission time, reply
/// collector and retransmission state.
struct OpenRequest {
    signed: SignedRequest,
    sent_at: SimTime,
    collector: bft_core::client::ReplyCollector,
    timer: TimerId,
    retransmitted: bool,
}

/// The requester client shared by most protocols: collects matching
/// replies, retransmits on timeout (broadcasting if the policy says so),
/// records `ClientAccept` observations for latency accounting.
///
/// Pacing follows the scenario workload's [`Arrival`](bft_core::Arrival)
/// knob: closed-loop (one request in flight, the default) or open-loop
/// (submissions on a fixed virtual-time schedule with arbitrarily many in
/// flight — the million-request throughput mode).
pub struct GenericClient<P: ClientProtocol> {
    id: ClientId,
    q: QuorumRules,
    store: Arc<KeyStore>,
    workload: Workload,
    total: u64,
    sent: u64,
    in_flight: Option<(RequestId, SignedRequest, SimTime)>,
    collector: bft_core::client::ReplyCollector,
    leader_hint: ReplicaId,
    retransmit: SimDuration,
    timer: Option<TimerId>,
    retransmitted: bool,
    /// `Some(interarrival)` in open-loop mode.
    arrival: Option<SimDuration>,
    /// Open-loop requests awaiting a reply quorum, keyed by request id.
    outstanding: BTreeMap<RequestId, OpenRequest>,
    /// Open-loop retransmission timers → the request they guard.
    retransmit_ids: BTreeMap<TimerId, RequestId>,
    /// Open-loop completions.
    done: u64,
    _marker: std::marker::PhantomData<P>,
}

impl<P: ClientProtocol> GenericClient<P> {
    /// Create a client for `scenario` with identity `id`.
    pub fn new(scenario: &Scenario, q: QuorumRules, id: u64) -> Self {
        let arrival = match scenario.workload.arrival {
            bft_core::Arrival::ClosedLoop => None,
            bft_core::Arrival::OpenLoop { interarrival_ns } => {
                Some(SimDuration(interarrival_ns.max(1)))
            }
        };
        GenericClient {
            id: ClientId(id),
            q,
            store: scenario.key_store(),
            workload: scenario.workload_for(id),
            total: scenario.requests_per_client,
            sent: 0,
            in_flight: None,
            collector: bft_core::client::ReplyCollector::new(),
            leader_hint: ReplicaId(0),
            retransmit: SimDuration(scenario.network.delta.0 * 4),
            timer: None,
            retransmitted: false,
            arrival,
            outstanding: BTreeMap::new(),
            retransmit_ids: BTreeMap::new(),
            done: 0,
            _marker: std::marker::PhantomData,
        }
    }

    fn submit_next(&mut self, ctx: &mut Context<'_, P::Msg>) {
        if self.sent >= self.total {
            return;
        }
        self.sent += 1;
        let request = Request::new(self.id, self.sent, self.workload.next_txn());
        let signed = SignedRequest::new(&self.store, request.clone());
        ctx.charge_crypto(bft_crypto::CryptoOp::Sign);
        self.in_flight = Some((request.id, signed.clone(), ctx.now()));
        self.collector.clear();
        self.retransmitted = false;
        self.dispatch(signed, false, ctx);
        let t = ctx.set_timer(TimerKind::T1WaitReplies, self.retransmit);
        self.timer = Some(t);
    }

    fn dispatch(&mut self, signed: SignedRequest, retransmit: bool, ctx: &mut Context<'_, P::Msg>) {
        match P::SUBMIT {
            SubmitPolicy::LeaderThenBroadcast if !retransmit => {
                ctx.send(NodeId::Replica(self.leader_hint), P::wrap_request(signed));
            }
            _ => {
                let n = self.q.n;
                ctx.multicast((0..n as u32).map(NodeId::replica), P::wrap_request(signed));
            }
        }
    }

    /// Open-loop: sign and submit the next request on the arrival schedule,
    /// tracking it among the (arbitrarily many) outstanding requests.
    fn submit_open(&mut self, ctx: &mut Context<'_, P::Msg>) {
        if self.sent >= self.total {
            return;
        }
        self.sent += 1;
        let request = Request::new(self.id, self.sent, self.workload.next_txn());
        let signed = SignedRequest::new(&self.store, request.clone());
        ctx.charge_crypto(bft_crypto::CryptoOp::Sign);
        let timer = ctx.set_timer(TimerKind::T1WaitReplies, self.retransmit);
        self.retransmit_ids.insert(timer, request.id);
        self.outstanding.insert(
            request.id,
            OpenRequest {
                signed: signed.clone(),
                sent_at: ctx.now(),
                collector: bft_core::client::ReplyCollector::new(),
                timer,
                retransmitted: false,
            },
        );
        self.dispatch(signed, false, ctx);
    }

    /// Open-loop reply handling: route the reply to its outstanding
    /// request's collector; completion never triggers a submission (the
    /// arrival timer owns pacing).
    fn on_open_reply(&mut self, from: NodeId, reply: &Reply, ctx: &mut Context<'_, P::Msg>) {
        let NodeId::Replica(replica) = from else {
            return;
        };
        let Some(pending) = self.outstanding.get_mut(&reply.request) else {
            return;
        };
        ctx.charge_crypto(bft_crypto::CryptoOp::Verify);
        self.leader_hint = reply.view.leader_of(self.q.n);
        let quorum = P::reply_quorum(&self.q);
        if let bft_core::client::CollectStatus::Complete { reply: agreed, .. } =
            pending.collector.offer(replica, reply.clone(), quorum)
        {
            let pending = self.outstanding.remove(&reply.request).expect("present");
            ctx.cancel_timer(pending.timer);
            self.retransmit_ids.remove(&pending.timer);
            self.done += 1;
            ctx.observe(Observation::ClientAccept {
                request: reply.request,
                sent_at: pending.sent_at,
                fast_path: !pending.retransmitted && agreed.speculative,
                txn: pending.signed.request.txn,
                result: agreed.result.clone(),
            });
        }
    }
}

impl<P: ClientProtocol> Actor<P::Msg> for GenericClient<P> {
    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        match self.arrival {
            None => self.submit_next(ctx),
            Some(interarrival) => {
                // first request at t=0, then one per interarrival tick
                self.submit_open(ctx);
                if self.sent < self.total {
                    ctx.set_timer(TimerKind::T7Heartbeat, interarrival);
                }
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: &P::Msg, ctx: &mut Context<'_, P::Msg>) {
        let Some(reply) = P::unwrap_reply(msg) else {
            return;
        };
        if self.arrival.is_some() {
            self.on_open_reply(from, reply, ctx);
            return;
        }
        let Some((current, _, sent_at)) = self.in_flight else {
            return;
        };
        if reply.request != current {
            return;
        }
        let NodeId::Replica(replica) = from else {
            return;
        };
        ctx.charge_crypto(bft_crypto::CryptoOp::Verify);
        self.leader_hint = reply.view.leader_of(self.q.n);
        let quorum = P::reply_quorum(&self.q);
        if let bft_core::client::CollectStatus::Complete { reply: agreed, .. } =
            self.collector.offer(replica, reply.clone(), quorum)
        {
            if let Some(t) = self.timer.take() {
                ctx.cancel_timer(t);
            }
            let txn = self
                .in_flight
                .take()
                .map(|(_, signed, _)| signed.request.txn)
                .unwrap_or_default();
            ctx.observe(Observation::ClientAccept {
                request: current,
                sent_at,
                fast_path: !self.retransmitted && agreed.speculative,
                txn,
                result: agreed.result.clone(),
            });
            self.submit_next(ctx);
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, P::Msg>) {
        if let Some(interarrival) = self.arrival {
            match kind {
                // the arrival schedule: submit and re-arm until the stream
                // is exhausted
                TimerKind::T7Heartbeat => {
                    self.submit_open(ctx);
                    if self.sent < self.total {
                        ctx.set_timer(TimerKind::T7Heartbeat, interarrival);
                    }
                }
                // a per-request retransmission backstop fired
                _ => {
                    let Some(rid) = self.retransmit_ids.remove(&id) else {
                        return;
                    };
                    let Some(pending) = self.outstanding.get_mut(&rid) else {
                        return;
                    };
                    pending.retransmitted = true;
                    let signed = pending.signed.clone();
                    let timer = ctx.set_timer(TimerKind::T1WaitReplies, self.retransmit);
                    pending.timer = timer;
                    self.retransmit_ids.insert(timer, rid);
                    self.dispatch(signed, true, ctx);
                }
            }
            return;
        }
        if Some(id) != self.timer {
            return;
        }
        let Some((_, signed, _)) = self.in_flight.clone() else {
            return;
        };
        // retransmit, broadcasting (PBFT rule: a retransmission goes to all
        // replicas so a faulty leader cannot suppress the request forever)
        self.retransmitted = true;
        self.dispatch(signed, true, ctx);
        let t = ctx.set_timer(TimerKind::T1WaitReplies, self.retransmit);
        self.timer = Some(t);
    }
}

/// Drive an engine until every expected client acceptance has been
/// observed, the workload drains, or the time budget runs out (virtual
/// time on the sim engine, wall clock on the threaded engine), then keep it
/// going for `drain` extra time so in-flight messages settle (Q/U's
/// trailing fast-forwards outlast the last reply). Returns the finished
/// outcome.
fn run_to_completion<M: WireSize + serde::Serialize + Send + Sync + 'static>(
    engine: Engine<M>,
    total_requests: u64,
    max_time: SimDuration,
    drain: SimDuration,
) -> RunOutcome {
    let mut sim = match engine {
        Engine::Threaded(eng) => {
            // `max_time` doubles as the wall-clock budget: the deadlock
            // backstop on real threads.
            return eng.run_with_drain(total_requests, max_time, drain);
        }
        Engine::Sim(sim) => sim,
    };
    // Pre-size the event queue: each request fans out to O(n²) protocol
    // messages, so reserving up front avoids repeated heap regrowth in
    // the hot loop. Capped so large request counts don't over-allocate.
    let n = sim.n_replicas().max(1);
    sim.reserve_events(
        (total_requests as usize)
            .saturating_mul(n * n)
            .clamp(64, 1 << 16),
    );
    let step = SimDuration::from_millis(50);
    let mut t = SimTime::ZERO;
    loop {
        t = t + step;
        sim.run(t);
        if sim.accepted() >= total_requests {
            if drain.0 > 0 {
                sim.run(t + drain);
            }
            break;
        }
        if t.0 >= max_time.0 {
            // the virtual-time budget is the deadlock backstop
            break;
        }
    }
    sim.finish()
}

/// Run a protocol under `scenario`: build the engine for `n` replicas,
/// install `replica(i, q, store)` for each of them and `client(c, q)` for
/// each scenario client, and drive the run to completion (plus `drain`).
pub fn launch_with_clients<M, R, C>(
    scenario: &Scenario,
    n: usize,
    drain: SimDuration,
    mut replica: impl FnMut(ReplicaId, QuorumRules, Arc<KeyStore>) -> R,
    mut client: impl FnMut(u64, QuorumRules) -> C,
) -> RunOutcome
where
    M: WireSize + serde::Serialize + Send + Sync + 'static,
    R: Actor<M> + Send + 'static,
    C: Actor<M> + Send + 'static,
{
    let q = QuorumRules { n, f: scenario.f };
    let store = scenario.key_store();
    let mut engine = scenario.build_engine::<M>(n);
    for i in 0..n as u32 {
        engine.add_replica(i, Box::new(replica(ReplicaId(i), q, store.clone())));
    }
    for c in 0..scenario.clients as u64 {
        engine.add_client(c, Box::new(client(c, q)));
    }
    run_to_completion(engine, scenario.total_requests(), scenario.max_time, drain)
}

/// [`launch_with_clients`] with [`GenericClient`]s and no drain — the shape
/// of every protocol whose client is the plain requester.
pub fn launch<P: ClientProtocol, R: Actor<P::Msg> + Send + 'static>(
    scenario: &Scenario,
    n: usize,
    replica: impl FnMut(ReplicaId, QuorumRules, Arc<KeyStore>) -> R,
) -> RunOutcome {
    launch_with_clients(scenario, n, SimDuration::ZERO, replica, |c, q| {
        GenericClient::<P>::new(scenario, q, c)
    })
}

/// Protocol-agnostic state-transfer/catch-up driver — the generalization of
/// PBFT's `StateRequest` retry loop for rejoining replicas.
///
/// A replica that restarts (durable or amnesia) or wakes from proactive
/// rejuvenation is behind the quorum and must close the gap from its peers.
/// This service owns the mechanics every protocol shares:
///
/// * **bounded in-flight window** — at most `window` peers are asked per
///   round, rotating round-robin so one unresponsive peer cannot wedge the
///   rejoin;
/// * **retry with exponential backoff** — while no progress arrives the
///   request is re-issued, each round waiting twice as long (capped), and
///   after [`Catchup::MAX_ATTEMPTS`] rounds the service gives up and lets
///   the ordinary protocol flow (checkpoint attestations revealing the gap)
///   take over;
/// * **recovery metrics** — catch-up rounds and retries are counted into
///   [`bft_sim::Metrics`] (`rec_catchup_events`, `rec_retries`).
///
/// The protocol owns message construction: `begin`/`on_timer` call back
/// with each peer to solicit, and the protocol sends its own state-request
/// message. Completion is reported by the protocol (snapshot installed, or
/// normal execution resumed) via [`Catchup::complete`].
#[derive(Debug)]
pub struct Catchup {
    me: ReplicaId,
    n: usize,
    window: usize,
    base: SimDuration,
    next_peer: u32,
    attempt: u32,
    timer: Option<TimerId>,
    kind: TimerKind,
    active: bool,
}

impl Catchup {
    /// Retry rounds before the service gives up (the protocol's ordinary
    /// checkpoint/in-dark machinery remains as the fallback).
    pub const MAX_ATTEMPTS: u32 = 6;

    /// A catch-up service for replica `me` of `n`, retrying on `kind`
    /// timers with initial backoff `base` (doubled per retry, capped at
    /// `8 × base`).
    pub fn new(me: ReplicaId, n: usize, kind: TimerKind, base: SimDuration) -> Catchup {
        Catchup {
            me,
            n,
            window: 2,
            base,
            next_peer: 0,
            attempt: 0,
            timer: None,
            kind,
            active: false,
        }
    }

    /// Whether a catch-up round is in flight.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Current backoff: `base × 2^attempt`, capped at `8 × base`.
    fn backoff(&self) -> SimDuration {
        let factor = 1u64 << self.attempt.min(3);
        SimDuration(self.base.0.saturating_mul(factor))
    }

    /// The next `window` peers in round-robin order, skipping `me`.
    fn targets(&mut self) -> Vec<ReplicaId> {
        let mut peers = Vec::new();
        if self.n <= 1 {
            return peers;
        }
        let want = self.window.min(self.n - 1);
        while peers.len() < want {
            let candidate = ReplicaId(self.next_peer % self.n as u32);
            self.next_peer = self.next_peer.wrapping_add(1);
            if candidate != self.me {
                peers.push(candidate);
            }
        }
        peers
    }

    /// Start (or restart) a catch-up: solicit the next `window` peers and
    /// arm the retry timer. Counts one `rec_catchup_events`.
    pub fn begin<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        mut solicit: impl FnMut(ReplicaId, &mut Context<'_, M>),
    ) {
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
        self.active = true;
        self.attempt = 0;
        ctx.count_catchup_event();
        for peer in self.targets() {
            solicit(peer, ctx);
        }
        self.timer = Some(ctx.set_timer(self.kind, self.backoff()));
    }

    /// Handle a timer pop. Returns `true` when the timer was this
    /// service's retry timer (consumed here); `false` means it belongs to
    /// the protocol. On retry, the next peers are solicited and the timer
    /// re-arms with doubled backoff; after [`Self::MAX_ATTEMPTS`] rounds
    /// the service deactivates instead.
    pub fn on_timer<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        id: TimerId,
        ctx: &mut Context<'_, M>,
        mut solicit: impl FnMut(ReplicaId, &mut Context<'_, M>),
    ) -> bool {
        if Some(id) != self.timer {
            return false;
        }
        self.timer = None;
        if !self.active {
            return true;
        }
        self.attempt += 1;
        if self.attempt >= Self::MAX_ATTEMPTS {
            self.active = false;
            return true;
        }
        ctx.count_catchup_retry();
        for peer in self.targets() {
            solicit(peer, ctx);
        }
        self.timer = Some(ctx.set_timer(self.kind, self.backoff()));
        true
    }

    /// The gap is closed (snapshot installed or ordinary execution
    /// resumed): cancel the retry timer and deactivate.
    pub fn complete<M: WireSize + serde::Serialize + 'static>(&mut self, ctx: &mut Context<'_, M>) {
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
        self.active = false;
        self.attempt = 0;
    }
}

/// Mempool de-duplication: queue `signed` unless it is queued already.
pub fn enqueue_unique(mempool: &mut VecDeque<SignedRequest>, signed: &SignedRequest) {
    if !mempool.iter().any(|r| r.request.id == signed.request.id) {
        mempool.push_back(signed.clone());
    }
}

/// A `deliver` closure for [`Execution`] and [`Intake::admit`]: charge
/// `auth` (if any) and send the reply, wrapped by `wrap`, to its client.
pub fn reply_to_client<M: WireSize + serde::Serialize + 'static>(
    auth: Option<CryptoOp>,
    wrap: impl Fn(Reply) -> M,
) -> impl FnMut(&mut Context<'_, M>, Reply, SeqNum) {
    move |ctx, reply, _| {
        if let Some(op) = auth {
            ctx.charge_crypto(op);
        }
        ctx.send(NodeId::Client(reply.request.client), wrap(reply));
    }
}

/// An [`Entry`] whose payload is the batch itself.
pub type BatchEntry = Entry<Vec<SignedRequest>>;

/// One consensus slot: what every ordering stage knows about a sequence
/// number — the proposal's digest, its batch once the proposal itself has
/// arrived, whether the slot is committed — plus the protocol's own
/// agreement state `ext` (vote lists, phase flags, timers). Whether a slot
/// has *executed* is not stored: it has iff it is at or below the
/// [`Execution`] cursor.
#[derive(Debug, Clone, Default)]
pub struct Slot<X> {
    /// Digest of the proposal, known from the proposal or from a
    /// certificate that outran it.
    pub digest: Option<Digest>,
    /// The batch; `None` until the proposal carrying it is installed, so a
    /// slot that committed ahead of its proposal cannot execute as empty.
    pub batch: Option<Vec<SignedRequest>>,
    /// Committed (for the speculative protocols: certified) — executable
    /// once every earlier slot has executed.
    pub committed: bool,
    /// Protocol-specific agreement state.
    pub ext: X,
}

impl<X: Default> Slot<X> {
    /// Forget the agreement reached so far (a new view re-runs it).
    pub fn reset(&mut self) {
        self.committed = false;
        self.ext = X::default();
    }
}

/// The committed-slot log: consensus slots by sequence number. The map is
/// exposed (`Deref`) for protocol-specific queries; the verbs every
/// protocol shares live here.
#[derive(Debug)]
pub struct SlotLog<X>(BTreeMap<SeqNum, Slot<X>>);

impl<X> Default for SlotLog<X> {
    fn default() -> Self {
        SlotLog(BTreeMap::new())
    }
}

impl<X> std::ops::Deref for SlotLog<X> {
    type Target = BTreeMap<SeqNum, Slot<X>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<X> std::ops::DerefMut for SlotLog<X> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<X: Default> SlotLog<X> {
    /// The slot at `seq`, created empty if absent.
    pub fn slot(&mut self, seq: SeqNum) -> &mut Slot<X> {
        self.0.entry(seq).or_default()
    }

    /// Install a proposal. `false` (and nothing changes) if the slot
    /// already holds a different digest — the first proposal stands.
    pub fn install(&mut self, seq: SeqNum, digest: Digest, batch: Vec<SignedRequest>) -> bool {
        let slot = self.slot(seq);
        let fresh = slot.digest.is_none_or(|held| held == digest);
        if fresh {
            (slot.digest, slot.batch) = (Some(digest), Some(batch));
        }
        fresh
    }

    /// Install a new view's re-proposal over whatever the slot held and
    /// [`reset`](Slot::reset) its agreement state.
    pub fn reinstall(
        &mut self,
        seq: SeqNum,
        digest: Digest,
        batch: Vec<SignedRequest>,
    ) -> &mut Slot<X> {
        let slot = self.slot(seq);
        (slot.digest, slot.batch) = (Some(digest), Some(batch));
        slot.reset();
        slot
    }

    /// Drop every slot above `cursor` that a new view does not re-propose
    /// and hand back the requests stranded in them.
    pub fn strand(&mut self, cursor: SeqNum, re_proposed: &[SeqNum]) -> Vec<SignedRequest> {
        let open = self.above(cursor).map(|(seq, _)| *seq);
        let dead: Vec<SeqNum> = open.filter(|seq| !re_proposed.contains(seq)).collect();
        let slots = dead.iter().filter_map(|seq| self.0.remove(seq));
        slots.flat_map(|s| s.batch.unwrap_or_default()).collect()
    }

    /// Requests sitting in slots above `cursor` (proposed, not executed):
    /// a leader must not propose them a second time.
    pub fn in_flight(&self, cursor: SeqNum) -> impl Iterator<Item = RequestId> + '_ {
        self.above(cursor)
            .flat_map(|(_, s)| s.batch.iter().flatten().map(|r| r.request.id))
    }

    /// The slots above `cursor` that satisfy `keep` and hold a proposal,
    /// as re-proposable entries — what a view-change message reports.
    pub fn entries_above(
        &self,
        cursor: SeqNum,
        keep: impl Fn(&Slot<X>) -> bool,
    ) -> Vec<BatchEntry> {
        self.above(cursor)
            .filter(|(_, s)| keep(s))
            .filter_map(|(seq, s)| Some((*seq, s.digest?, s.batch.clone()?)))
            .collect()
    }

    fn above(&self, cursor: SeqNum) -> impl Iterator<Item = (&SeqNum, &Slot<X>)> {
        use std::ops::Bound::{Excluded, Unbounded};
        self.0.range((Excluded(cursor), Unbounded))
    }
}

/// The execution stage of Figure 1, shared by every replicated protocol:
/// the state machine, the set of executed requests and the cursor over
/// consensus slots. It runs committed batches in order and hands each
/// [`Reply`] to the protocol's `deliver` closure, which authenticates and
/// sends it (plain send, CheapBFT's actives-only, SBFT's exec share to the
/// collector, Zyzzyva's `SpecReply`) — `deliver` also receives the state
/// machine sequence number the request executed at.
///
/// The ordering stage decides *which* batch sits in the next slot and
/// whether it is committed; this stage only ever executes a batch it is
/// actually handed, so a slot whose proposal has not arrived cannot be
/// executed as an empty placeholder.
#[derive(Debug, Default)]
pub struct Execution {
    sm: StateMachine,
    executed: BTreeSet<RequestId>,
    /// Last executed consensus slot (slot space ≠ request space when
    /// batches hold several requests).
    cursor: SeqNum,
    speculative: bool,
    skip_executed: bool,
    /// Test-only sabotage: silently skip the request at this position of
    /// the execution stream (see [`Execution::dropping_nth`]).
    drop_nth: Option<u64>,
    /// Requests [`Execution::execute`] has been handed.
    seen: u64,
}

impl Execution {
    /// A stage at slot 0 with an empty state machine.
    pub fn new() -> Execution {
        Execution::default()
    }

    /// Back to slot 0 with an empty state machine, keeping the stage's
    /// mode (amnesia restart).
    pub fn reset(&mut self) {
        *self = Execution {
            speculative: self.speculative,
            skip_executed: self.skip_executed,
            drop_nth: self.drop_nth,
            seen: self.seen,
            ..Execution::default()
        };
    }

    /// Execute speculatively (PoE, Zyzzyva): effects can be undone by
    /// [`Execution::rollback`] and replies are marked speculative.
    pub fn speculative(mut self) -> Execution {
        self.speculative = true;
        self
    }

    /// Skip requests of a batch that already executed (protocols whose
    /// ordering stage can decide one request in two slots: Chain, HotStuff,
    /// Kauri, Prime, Tendermint, Themis).
    pub fn skipping_executed(mut self) -> Execution {
        self.skip_executed = true;
        self
    }

    /// Last executed consensus slot.
    pub fn cursor(&self) -> SeqNum {
        self.cursor
    }

    /// Re-aim the cursor after a rollback.
    pub fn set_cursor(&mut self, slot: SeqNum) {
        self.cursor = slot;
    }

    /// Read access to the state machine (digest, snapshots, read path).
    pub fn sm(&self) -> &StateMachine {
        &self.sm
    }

    /// Whether `id` has executed here (and was not rolled back).
    pub fn is_executed(&self, id: &RequestId) -> bool {
        self.executed.contains(id)
    }

    /// Test-only sabotage (PBFT's `DropExecution`): the `k`-th request
    /// handed to this stage (0-based) is marked executed and answered with
    /// a fabricated result without being applied. Every replica fabricates
    /// identically, so digests stay unanimous — only the semantic checkers
    /// can catch the lost update.
    #[doc(hidden)]
    pub fn dropping_nth(mut self, k: Option<u64>) -> Execution {
        self.drop_nth = k;
        self
    }

    /// The reply this replica would re-send for `id`: the client's cached
    /// result, if `id` is still the client's latest executed request.
    pub fn cached_reply(&self, id: RequestId, view: View) -> Option<Reply> {
        let (cached, result) = self.sm.cached_reply(id.client)?;
        (*cached == id).then(|| Reply {
            request: id,
            view,
            result: result.clone(),
            state_digest: self.sm.digest(),
            speculative: self.speculative,
        })
    }

    /// Execute one request at the next state-machine sequence number:
    /// charge its `Op::Work` (1 µs per unit), apply it, observe the
    /// execution, mark it executed and deliver the reply. Already-executed
    /// requests are skipped when the stage was built
    /// [`skipping_executed`](Execution::skipping_executed).
    pub fn execute<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        signed: &SignedRequest,
        view: View,
        deliver: &mut impl FnMut(&mut Context<'_, M>, Reply, SeqNum),
    ) {
        let id = signed.request.id;
        if self.skip_executed && self.executed.contains(&id) {
            return;
        }
        self.seen += 1;
        if self.drop_nth == Some(self.seen - 1) {
            self.executed.insert(id);
            let ops = signed.request.txn.ops.iter();
            let reads = ops.filter(|op| !matches!(op, Op::Put(..) | Op::Delete(_) | Op::Work(_)));
            let fabricated = Reply {
                request: id,
                view,
                result: bft_types::TxnResult {
                    reads: reads.map(|_| Some(0)).collect(),
                },
                state_digest: self.sm.digest(),
                speculative: false,
            };
            return deliver(ctx, fabricated, SeqNum(0));
        }
        let seq = self.sm.last_executed().next();
        let work: u32 = signed
            .request
            .txn
            .ops
            .iter()
            .map(|op| if let Op::Work(w) = op { *w } else { 0 })
            .sum();
        if work > 0 {
            ctx.charge(SimDuration(work as u64 * 1_000));
        }
        let (result, state_digest) = if self.speculative {
            self.sm.execute_speculative(seq, &signed.request)
        } else {
            self.sm.execute(seq, &signed.request)
        };
        ctx.observe(Observation::Execute {
            seq,
            request: id,
            state_digest,
        });
        self.executed.insert(id);
        let reply = Reply {
            request: id,
            view,
            result,
            state_digest,
            speculative: self.speculative,
        };
        deliver(ctx, reply, seq);
    }

    /// Run the committed batch of the slot after the cursor, bracketed by
    /// the Execution/Ordering stage observations, and advance the cursor.
    /// `batch` is `None` while the slot's proposal has not been installed:
    /// nothing happens then and `false` comes back — the caller retries
    /// when the proposal lands.
    pub fn run<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        batch: Option<&[SignedRequest]>,
        view: View,
        deliver: impl FnMut(&mut Context<'_, M>, Reply, SeqNum),
    ) -> bool {
        self.run_then(ctx, batch, view, deliver, |_| {})
    }

    /// [`Execution::run`], calling `epilogue` after the last request and
    /// before the stage is left (PoE observes its speculative commit
    /// there).
    pub fn run_then<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        batch: Option<&[SignedRequest]>,
        view: View,
        mut deliver: impl FnMut(&mut Context<'_, M>, Reply, SeqNum),
        epilogue: impl FnOnce(&mut Context<'_, M>),
    ) -> bool {
        let Some(batch) = batch else {
            return false;
        };
        ctx.observe(Observation::StageEnter {
            stage: Stage::Execution,
        });
        for signed in batch {
            self.execute(ctx, signed, view, &mut deliver);
        }
        epilogue(ctx);
        self.cursor = self.cursor.next();
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
        true
    }

    /// The one cursor loop over a committed-slot log: while the slot after
    /// the cursor is committed *and holds its batch*, run it and call
    /// `after_slot` (the protocol's per-slot bookkeeping: settling the
    /// intake, a checkpoint, shipping the batch to passive replicas) with
    /// the stage, the log and the slot just executed. A gap, an
    /// uncommitted slot or a slot still waiting for its proposal stops the
    /// loop; the caller re-enters when that changes.
    pub fn drain<M: WireSize + serde::Serialize + 'static, X>(
        &mut self,
        ctx: &mut Context<'_, M>,
        log: &mut SlotLog<X>,
        view: View,
        deliver: impl FnMut(&mut Context<'_, M>, Reply, SeqNum),
        after_slot: impl FnMut(&mut Context<'_, M>, &mut Execution, &mut SlotLog<X>, SeqNum),
    ) {
        self.drain_then(ctx, log, view, deliver, |_, _, _| {}, after_slot);
    }

    /// [`Execution::drain`], calling `epilogue` with each slot after its
    /// last request and before the stage is left (see
    /// [`Execution::run_then`]).
    pub fn drain_then<M: WireSize + serde::Serialize + 'static, X>(
        &mut self,
        ctx: &mut Context<'_, M>,
        log: &mut SlotLog<X>,
        view: View,
        mut deliver: impl FnMut(&mut Context<'_, M>, Reply, SeqNum),
        mut epilogue: impl FnMut(&mut Context<'_, M>, SeqNum, &Slot<X>),
        mut after_slot: impl FnMut(&mut Context<'_, M>, &mut Execution, &mut SlotLog<X>, SeqNum),
    ) {
        loop {
            let next = self.cursor.next();
            let Some(slot) = log.get(&next).filter(|s| s.committed) else {
                return;
            };
            let batch = slot.batch.as_deref();
            if !self.run_then(ctx, batch, view, &mut deliver, |ctx| {
                epilogue(ctx, next, slot)
            }) {
                return;
            }
            after_slot(ctx, self, log, next);
        }
    }

    /// Undo every execution at state-machine sequence number ≥ `from`
    /// (speculation that did not survive a view change): the requests
    /// become executable again. Observes the rollback if anything was
    /// undone; the caller re-aims the cursor.
    pub fn rollback<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        from: SeqNum,
    ) {
        let undone: Vec<RequestId> = self
            .sm
            .history()
            .iter()
            .filter(|e| e.seq >= from)
            .map(|e| e.request)
            .collect();
        if self.sm.rollback_to(from) > 0 {
            ctx.observe(Observation::Rollback { from_seq: from });
        }
        for id in undone {
            self.executed.remove(&id);
        }
    }

    /// Mark speculative executions up to `seq` final.
    pub fn confirm_up_to(&mut self, seq: SeqNum) {
        self.sm.confirm_up_to(seq);
    }

    /// Replace the machine state with `snapshot`, which covers consensus
    /// slots up to `slot`.
    pub fn install_snapshot(&mut self, snapshot: &Snapshot, slot: SeqNum) {
        self.sm.install_snapshot(snapshot);
        self.cursor = slot;
    }

    /// Drop undo/history bookkeeping at or below `seq` (stable checkpoint).
    pub fn truncate_below(&mut self, seq: SeqNum) {
        self.sm.truncate_below(seq);
    }
}

/// Request intake on the path every replicated protocol shares: verify the
/// client signature, answer a retransmission of an executed request from
/// the reply cache ([`Intake::admit`]), and — at a backup — forward the
/// request to the leader, remember it as outstanding and hold the leader
/// accountable with the view-change timer τ2 ([`Intake::relay`]). The same
/// τ2 handle is re-armed by a protocol's view-change code and disarmed when
/// the outstanding set drains ([`Intake::settle`]).
#[derive(Debug)]
pub struct Intake {
    /// Requests relayed (or merely seen) and not yet executed here.
    pending: Vec<RequestId>,
    timer: Option<TimerId>,
    timeout: SimDuration,
}

impl Intake {
    /// An intake whose τ2 runs for `view_timeout`.
    pub fn new(view_timeout: SimDuration) -> Intake {
        Intake {
            pending: Vec::new(),
            timer: None,
            timeout: view_timeout,
        }
    }

    /// Charge for and check the client's signature on a request.
    pub fn verify<M: WireSize + serde::Serialize + 'static>(
        ctx: &mut Context<'_, M>,
        store: &KeyStore,
        signed: &SignedRequest,
    ) -> bool {
        ctx.charge_crypto(CryptoOp::Verify); // client signatures are real signatures
        signed.verify(store)
    }

    /// Verify a client request and decide whether it is new work. A
    /// request this replica already executed is answered through `deliver`
    /// when the client's cached reply is still for that request (`deliver`
    /// gets the reply and the last executed state-machine sequence number),
    /// and dropped either way. Returns `true` for a valid, unexecuted
    /// request.
    pub fn admit<M: WireSize + serde::Serialize + 'static>(
        ctx: &mut Context<'_, M>,
        store: &KeyStore,
        exec: &Execution,
        signed: &SignedRequest,
        view: View,
        deliver: impl FnOnce(&mut Context<'_, M>, Reply, SeqNum),
    ) -> bool {
        if !Self::verify(ctx, store, signed) {
            return false;
        }
        if let Some(reply) = exec.cached_reply(signed.request.id, view) {
            deliver(ctx, reply, exec.sm.last_executed());
            return false;
        }
        !exec.is_executed(&signed.request.id)
    }

    /// Backup path: forward the request to `leader` (wrapped by `wrap`)
    /// and [`watch`](Intake::watch) it.
    pub fn relay<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        signed: &SignedRequest,
        leader: ReplicaId,
        wrap: impl FnOnce(SignedRequest) -> M,
        may_arm: bool,
    ) {
        ctx.send(NodeId::Replica(leader), wrap(signed.clone()));
        self.watch(ctx, signed.request.id, may_arm);
    }

    /// Remember `id` as outstanding and, unless a view change is already
    /// under way (`may_arm` false), make sure τ2 is running.
    pub fn watch<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        id: RequestId,
        may_arm: bool,
    ) {
        if !self.pending.contains(&id) {
            self.pending.push(id);
        }
        if may_arm {
            self.arm(ctx);
        }
    }

    /// After execution progress: forget outstanding requests that have
    /// executed and stop τ2 once none remain.
    pub fn settle<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        exec: &Execution,
    ) {
        self.pending.retain(|id| !exec.is_executed(id));
        if self.pending.is_empty() {
            self.disarm(ctx);
        }
    }

    /// The outstanding request watched longest.
    pub fn oldest(&self) -> Option<RequestId> {
        self.pending.first().copied()
    }

    /// Whether relayed requests are still outstanding.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Forget every outstanding request (a new view starts clean).
    pub fn clear_pending(&mut self) {
        self.pending.clear();
    }

    /// Start τ2 unless it is already running; `true` if it was started.
    pub fn arm<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
    ) -> bool {
        if self.timer.is_some() {
            return false;
        }
        self.rearm(ctx);
        true
    }

    /// Start a fresh τ2 span; a span already running is orphaned (its pop
    /// no longer matches [`Intake::fired`]), not cancelled.
    pub fn rearm<M: WireSize + serde::Serialize + 'static>(&mut self, ctx: &mut Context<'_, M>) {
        self.rearm_for(ctx, self.timeout);
    }

    /// [`Intake::rearm`] with an explicit span.
    pub fn rearm_for<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        span: SimDuration,
    ) {
        self.timer = Some(ctx.set_timer(TimerKind::T2ViewChange, span));
    }

    /// Cancel τ2 if it is running.
    pub fn disarm<M: WireSize + serde::Serialize + 'static>(&mut self, ctx: &mut Context<'_, M>) {
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
    }

    /// Timer pop: `true` (and τ2 is marked stopped) iff `id` is the live τ2.
    pub fn fired(&mut self, id: TimerId) -> bool {
        let hit = self.timer == Some(id);
        if hit {
            self.timer = None;
        }
        hit
    }

    /// Forget the τ2 handle without cancelling it (the timer died with a
    /// crashed incarnation).
    pub fn forget_timer(&mut self) {
        self.timer = None;
    }
}

/// The view gate in front of a protocol's ordering messages: the current
/// view, whether a view change is in progress, and the bounded buffer of
/// messages that raced ahead of the new-view message that would make them
/// current.
#[derive(Debug)]
pub struct ViewGate<M> {
    view: View,
    in_view_change: bool,
    future: Vec<(View, NodeId, M)>,
}

impl<M> Default for ViewGate<M> {
    fn default() -> Self {
        ViewGate {
            view: View(0),
            in_view_change: false,
            future: Vec::new(),
        }
    }
}

impl<M: Clone> ViewGate<M> {
    /// Buffered messages beyond this many are dropped (flood bound).
    pub const CAPACITY: usize = 10_000;

    /// A gate in view 0, normal operation, nothing buffered.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// Whether a view change is in progress.
    pub fn in_view_change(&self) -> bool {
        self.in_view_change
    }

    /// Enter (`true`) or abandon (`false`) a view change without
    /// installing a view.
    pub fn set_in_view_change(&mut self, on: bool) {
        self.in_view_change = on;
    }

    /// Install `view`: it becomes current and normal operation resumes.
    /// Buffered messages stay put until
    /// [`replay_after_install`](ViewGate::replay_after_install).
    pub fn install(&mut self, view: View) {
        self.view = view;
        self.in_view_change = false;
    }

    /// Admit a message tagged `view`: `true` iff it belongs to the current
    /// view in normal operation. A message ahead of the view — or for the
    /// current view while a view change is in progress — is buffered for
    /// replay; a stale one is dropped.
    pub fn admit(&mut self, from: NodeId, view: View, msg: &M) -> bool {
        if view > self.view || (self.in_view_change && view == self.view) {
            if self.future.len() < Self::CAPACITY {
                self.future.push((view, from, msg.clone()));
            }
            false
        } else {
            view == self.view && !self.in_view_change
        }
    }

    /// After installing a view: take the buffered messages of exactly that
    /// view, in arrival order, for re-delivery; later views stay buffered
    /// and stale ones are dropped.
    pub fn replay_after_install(&mut self) -> Vec<(NodeId, M)> {
        let cur = self.view;
        let (now, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.future)
            .into_iter()
            .filter(|(v, _, _)| *v >= cur)
            .partition(|(v, _, _)| *v == cur);
        self.future = later;
        now.into_iter().map(|(_, from, m)| (from, m)).collect()
    }

    /// Back to view 0 with nothing buffered (amnesia restart).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// A re-proposable consensus entry: `(slot, digest, payload)` — the unit
/// view-change and new-view messages carry. The payload is the batch
/// ([`BatchEntry`]) or, for Themis, the per-replica batch set.
pub type Entry<P> = (SeqNum, Digest, P);

/// The two messages of the PBFT-pattern view change, embedded in each
/// member's message enum.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewMsg<P> {
    /// Replica → all: abandon the view, carrying the entries the sender
    /// would lose.
    ViewChange {
        /// Target view.
        new_view: View,
        /// What the sender reports (see `ViewChanger::report`).
        report: Vec<Entry<P>>,
        /// Sender.
        from: ReplicaId,
    },
    /// New leader → all: install the view with these re-proposals.
    NewView {
        /// Installed view.
        view: View,
        /// Re-proposals.
        proposals: Vec<Entry<P>>,
    },
}

/// As a tagged tuple (the vendored derive does not do generic types).
impl<P: serde::Serialize> serde::Serialize for ViewMsg<P> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            ViewMsg::ViewChange {
                new_view,
                report,
                from,
            } => (0u8, new_view, report, from).serialize(serializer),
            ViewMsg::NewView { view, proposals } => (1u8, view, proposals).serialize(serializer),
        }
    }
}

impl<P> ViewMsg<P> {
    /// Wire size: tag, view, per entry 40 bytes of slot and digest plus
    /// `payload` bytes, and a `sig`-byte authenticator.
    pub fn wire_size(&self, sig: usize, payload: impl Fn(&P) -> usize) -> usize {
        let entries = match self {
            ViewMsg::ViewChange { report, .. } => report,
            ViewMsg::NewView { proposals, .. } => proposals,
        };
        let entries = entries.iter().map(|(_, _, p)| 40 + payload(p));
        1 + 8 + entries.sum::<usize>() + sig
    }
}

/// One view-change vote: the voter and the entries it reported.
type Vote<P> = (ReplicaId, Vec<Entry<P>>);

/// What [`ViewChange::record`] tells the replica to do about a vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcStep {
    /// Nothing: a duplicate, or no threshold crossed.
    Wait,
    /// f+1 replicas want the target view and this one is not campaigning
    /// yet: at least one of them is correct, so join.
    Join,
    /// This replica leads the target view, is campaigning, and holds a
    /// new-view quorum of votes: assemble and install the view.
    Assemble,
}

/// The vote table of the PBFT-pattern view change — per target view, who
/// voted and the entries each voter reported — with the rules that do not
/// vary between protocols: one vote per sender, join at f+1, assemble only
/// at the target's leader at the protocol's quorum, escalate on τ2.
#[derive(Debug)]
pub struct ViewChange<P> {
    votes: BTreeMap<View, Vec<Vote<P>>>,
}

impl<P> Default for ViewChange<P> {
    fn default() -> Self {
        ViewChange {
            votes: BTreeMap::new(),
        }
    }
}

impl<P: Clone> ViewChange<P> {
    /// Record `from`'s vote for `target` at replica `me`, which is in
    /// `view` and `campaigning` or not; `quorum` is the protocol's new-view
    /// quorum.
    pub fn record(
        &mut self,
        (me, q): (ReplicaId, QuorumRules),
        quorum: usize,
        (view, campaigning): (View, bool),
        from: ReplicaId,
        target: View,
        report: Vec<Entry<P>>,
    ) -> VcStep {
        let votes = self.votes.entry(target).or_default();
        if votes.iter().any(|(r, _)| *r == from) {
            return VcStep::Wait;
        }
        votes.push((from, report));
        if target > view && !campaigning && votes.len() > q.f {
            VcStep::Join
        } else if target.leader_of(q.n) == me && campaigning && votes.len() >= quorum {
            VcStep::Assemble
        } else {
            VcStep::Wait
        }
    }

    /// The votes collected for `target`, in arrival order.
    pub fn votes(&self, target: View) -> &[Vote<P>] {
        self.votes.get(&target).map_or(&[], Vec::as_slice)
    }

    /// Per slot, the first entry any voter for `target` reported: the
    /// re-proposals most of the family's new leaders assemble.
    pub fn first_seen_union(&self, target: View) -> Vec<Entry<P>> {
        let mut union: BTreeMap<SeqNum, (Digest, &P)> = BTreeMap::new();
        let entries = self.votes(target).iter().flat_map(|(_, entries)| entries);
        for (seq, digest, payload) in entries {
            union.entry(*seq).or_insert((*digest, payload));
        }
        let entry =
            |(seq, (digest, payload)): (SeqNum, (Digest, &P))| (seq, digest, payload.clone());
        union.into_iter().map(entry).collect()
    }

    /// Whether a campaign for `target` would add nothing: one for that
    /// view or a higher one has been voted for already.
    pub fn covers(&self, target: View) -> bool {
        self.votes.keys().max().is_some_and(|v| *v >= target)
    }

    /// The view τ2 demands next: past every view voted for so far while a
    /// campaign is stuck, the next view when outstanding work indicts the
    /// leader, none otherwise.
    pub fn escalation(&self, view: View, campaigning: bool, work_pending: bool) -> Option<View> {
        if campaigning {
            let voted = self.votes.keys().max().copied();
            Some(voted.unwrap_or(view).max(view).next())
        } else {
            work_pending.then(|| view.next())
        }
    }

    /// `view` is installed: votes for it and for earlier views are moot.
    pub fn prune(&mut self, view: View) {
        self.votes.retain(|v, _| *v > view);
    }
}

/// Leader housekeeping before proposing: drop from the mempool what has
/// executed or already sits in an open slot.
pub fn drop_ordered<X: Default>(
    mempool: &mut VecDeque<SignedRequest>,
    exec: &Execution,
    log: &SlotLog<X>,
) {
    let open: Vec<RequestId> = log.in_flight(exec.cursor()).collect();
    mempool.retain(|r| !exec.is_executed(&r.request.id) && !open.contains(&r.request.id));
}

/// Requeue stranded requests that have not executed, once each.
pub fn requeue_unexecuted(
    mempool: &mut VecDeque<SignedRequest>,
    exec: &Execution,
    stranded: &[SignedRequest],
) {
    for r in stranded.iter().filter(|r| !exec.is_executed(&r.request.id)) {
        enqueue_unique(mempool, r);
    }
}

/// The replica skeleton the PBFT-pattern family embeds: who this replica
/// is plus the lifecycle stages that do not vary between its members.
pub(crate) struct Core<M, X, P> {
    pub me: ReplicaId,
    pub q: QuorumRules,
    pub gate: ViewGate<M>,
    pub votes: ViewChange<P>,
    pub intake: Intake,
    pub exec: Execution,
    pub log: SlotLog<X>,
    /// Leader-only: next sequence number to assign.
    pub next_seq: SeqNum,
}

impl<M: WireSize + Clone + serde::Serialize + 'static, X: Default, P> Core<M, X, P> {
    /// A replica in view 0 with an empty log, executing through `exec`.
    pub fn new(me: ReplicaId, q: QuorumRules, view_timeout: SimDuration, exec: Execution) -> Self {
        Core {
            me,
            q,
            gate: ViewGate::new(),
            votes: ViewChange::default(),
            intake: Intake::new(view_timeout),
            exec,
            log: SlotLog::default(),
            next_seq: SeqNum(1),
        }
    }

    /// The leader of the current view.
    pub fn leader(&self) -> ReplicaId {
        self.gate.view().leader_of(self.q.n)
    }

    /// Whether this replica leads the current view.
    pub fn is_leader(&self) -> bool {
        self.leader() == self.me
    }

    /// The open slots satisfying `keep`, as a view-change report.
    pub fn open_entries(&self, keep: impl Fn(&Slot<X>) -> bool) -> Vec<BatchEntry> {
        self.log.entries_above(self.exec.cursor(), keep)
    }

    /// [`Execution::drain`] in the current view: replies go to the clients
    /// (authenticated by `auth`, wrapped by `wrap`) and the intake settles
    /// after each slot.
    pub fn execute_ready(
        &mut self,
        ctx: &mut Context<'_, M>,
        auth: CryptoOp,
        wrap: impl Fn(Reply) -> M,
    ) {
        let (view, intake) = (self.gate.view(), &mut self.intake);
        let settle = |ctx: &mut Context<'_, M>, exec: &mut Execution, _: &mut SlotLog<X>, _| {
            intake.settle(ctx, exec)
        };
        let deliver = reply_to_client(Some(auth), wrap);
        self.exec.drain(ctx, &mut self.log, view, deliver, settle);
    }
}

/// The PBFT-pattern view change (MinBFT, FaB, Prime, Themis, Kauri, SBFT,
/// PoE): replicas broadcast a signed view-change vote carrying what they
/// would lose; f+1 votes pull the rest in; the target view's leader
/// assembles a new-view message from a quorum of votes; everyone installs
/// it, re-runs agreement on the re-proposed slots and requeues what was
/// stranded. The provided methods are that lifecycle; a protocol says only
/// **what it reports**, **how its new leader assembles** and **how it
/// adopts one re-proposal** (plus how those travel on its wire).
pub(crate) trait ViewChanger: Actor<Self::Msg> + Sized {
    /// The protocol's message type.
    type Msg: WireSize + Clone + serde::Serialize + 'static;
    /// Its per-slot agreement state.
    type Ext: Default;
    /// What a re-proposal carries per slot (the batch; Themis: the
    /// per-replica batch set).
    type Payload: Clone;

    /// The skeleton this replica embeds.
    fn core(&mut self) -> &mut Core<Self::Msg, Self::Ext, Self::Payload>;

    /// Votes the target's leader needs before it may assemble: 2f+1.
    fn new_view_quorum(q: QuorumRules) -> usize {
        q.quorum()
    }

    /// Whether work is outstanding that the current leader should have
    /// ordered by the time τ2 fires.
    fn work_pending(&mut self) -> bool {
        self.core().intake.has_pending()
    }

    /// The family's two messages inside the protocol's message enum.
    fn wire(msg: ViewMsg<Self::Payload>) -> Self::Msg;

    /// What this replica reports when it abandons the view.
    fn report(&mut self, ctx: &mut Context<'_, Self::Msg>) -> Vec<Entry<Self::Payload>>;

    /// How the new leader turns the votes for `target` into re-proposals:
    /// unless the protocol knows better, the first-seen union.
    fn assemble(&mut self, target: View) -> Vec<Entry<Self::Payload>> {
        self.core().votes.first_seen_union(target)
    }

    /// Adopt one re-proposal above the execution cursor: reinstall the slot
    /// and cast this replica's first vote of the new view for it.
    fn adopt(&mut self, entry: Entry<Self::Payload>, ctx: &mut Context<'_, Self::Msg>);

    /// Take back the requests of slots the new view did not re-propose.
    fn requeue(&mut self, stranded: Vec<SignedRequest>);

    /// The new leader resumes proposing.
    fn resume(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// Abandon the current view for `target`: enter the view-change stage,
    /// broadcast a signed vote carrying [`report`](ViewChanger::report),
    /// count it, and give the campaign one τ2 to succeed. A no-op for a
    /// view not ahead of the current one or already covered by a campaign.
    fn start_view_change(&mut self, target: View, ctx: &mut Context<'_, Self::Msg>) {
        let core = self.core();
        if target <= core.gate.view() || (core.gate.in_view_change() && core.votes.covers(target)) {
            return;
        }
        core.gate.set_in_view_change(true);
        ctx.observe(Observation::StageEnter {
            stage: Stage::ViewChange,
        });
        let (report, from) = (self.report(ctx), self.core().me);
        ctx.charge_crypto(CryptoOp::Sign);
        ctx.broadcast_replicas(Self::wire(ViewMsg::ViewChange {
            new_view: target,
            report: report.clone(),
            from,
        }));
        self.on_view_change(from, target, report, ctx);
        self.core().intake.rearm(ctx);
    }

    /// One of the family's messages arrived from `from`.
    fn on_view_msg(
        &mut self,
        from: NodeId,
        msg: &ViewMsg<Self::Payload>,
        ctx: &mut Context<'_, Self::Msg>,
    ) {
        match msg {
            ViewMsg::ViewChange {
                new_view,
                report,
                from,
            } => {
                ctx.charge_crypto(CryptoOp::Verify);
                self.on_view_change(*from, *new_view, report.clone(), ctx);
            }
            ViewMsg::NewView { view, proposals } => {
                // only from the leader of a view not behind the current one
                let core = self.core();
                let leader = NodeId::Replica(view.leader_of(core.q.n));
                if *view >= core.gate.view() && from == leader {
                    ctx.charge_crypto(CryptoOp::Verify);
                    self.install_view(*view, proposals.clone(), ctx);
                }
            }
        }
    }

    /// Count a (verified) view-change vote and act on the thresholds it
    /// crosses: join the campaign, or assemble and install the view.
    fn on_view_change(
        &mut self,
        from: ReplicaId,
        target: View,
        report: Vec<Entry<Self::Payload>>,
        ctx: &mut Context<'_, Self::Msg>,
    ) {
        let core = self.core();
        let (identity, quorum) = ((core.me, core.q), Self::new_view_quorum(core.q));
        let at = (core.gate.view(), core.gate.in_view_change());
        match core
            .votes
            .record(identity, quorum, at, from, target, report)
        {
            VcStep::Wait => {}
            VcStep::Join => self.start_view_change(target, ctx),
            VcStep::Assemble => {
                let proposals = self.assemble(target);
                ctx.charge_crypto(CryptoOp::Sign);
                ctx.broadcast_replicas(Self::wire(ViewMsg::NewView {
                    view: target,
                    proposals: proposals.clone(),
                }));
                self.install_view(target, proposals, ctx);
            }
        }
    }

    /// Install `view`: leave the view-change stage, adopt the re-proposals
    /// and replay the messages that raced ahead of the new-view message.
    fn install_view(
        &mut self,
        view: View,
        proposals: Vec<Entry<Self::Payload>>,
        ctx: &mut Context<'_, Self::Msg>,
    ) {
        let core = self.core();
        core.gate.install(view);
        core.votes.prune(view);
        core.intake.disarm(ctx);
        ctx.observe(Observation::NewView { view });
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
        self.adopt_view(proposals, ctx);
        for (from, msg) in self.core().gate.replay_after_install() {
            self.on_message(from, &msg, ctx);
        }
    }

    /// Carry the log into the installed view: strand and requeue what was
    /// not re-proposed, [`adopt`](ViewChanger::adopt) each re-proposal above
    /// the cursor, and let the new leader continue past them.
    fn adopt_view(
        &mut self,
        proposals: Vec<Entry<Self::Payload>>,
        ctx: &mut Context<'_, Self::Msg>,
    ) {
        let core = self.core();
        let cursor = core.exec.cursor();
        let re_proposed: Vec<SeqNum> = proposals.iter().map(|(seq, ..)| *seq).collect();
        let stranded = core.log.strand(cursor, &re_proposed);
        self.requeue(stranded);
        for entry in proposals.into_iter().filter(|(seq, ..)| *seq > cursor) {
            self.adopt(entry, ctx);
        }
        let core = self.core();
        if core.is_leader() {
            let past = re_proposed
                .into_iter()
                .fold(core.exec.cursor(), SeqNum::max);
            core.next_seq = core.next_seq.max(past.next());
            self.resume(ctx);
        }
    }

    /// A timer popped: if it is the live τ2, escalate (see
    /// [`ViewChange::escalation`]).
    fn on_view_timer(&mut self, id: TimerId, ctx: &mut Context<'_, Self::Msg>) {
        if !self.core().intake.fired(id) {
            return;
        }
        let work_pending = self.work_pending();
        let core = self.core();
        let (view, campaigning) = (core.gate.view(), core.gate.in_view_change());
        if let Some(target) = core.votes.escalation(view, campaigning, work_pending) {
            self.start_view_change(target, ctx);
        }
    }
}

/// Test harness for handler-level regressions: a four-replica LAN in which
/// one replica is real and another plays a script at it.
#[cfg(test)]
pub(crate) mod script {
    use super::*;

    /// Sends `now` to replica `to` at start-up and `late` 5 ms afterwards;
    /// ignores everything it receives.
    pub(crate) struct Script<M> {
        pub to: u32,
        pub now: Vec<M>,
        pub late: Vec<M>,
    }

    impl<M: WireSize + Clone + serde::Serialize + 'static> Actor<M> for Script<M> {
        fn on_start(&mut self, ctx: &mut Context<'_, M>) {
            for msg in self.now.drain(..) {
                ctx.send(NodeId::replica(self.to), msg);
            }
            ctx.set_timer(TimerKind::T1WaitReplies, SimDuration::from_millis(5));
        }

        fn on_message(&mut self, _: NodeId, _: &M, _: &mut Context<'_, M>) {}

        fn on_timer(&mut self, _: TimerId, _: TimerKind, ctx: &mut Context<'_, M>) {
            for msg in self.late.drain(..) {
                ctx.send(NodeId::replica(self.to), msg);
            }
        }
    }

    /// A replica under a gauge: after every event it handles, `size` reads
    /// one of its structures and the largest reading so far is kept.
    struct Gauged<R> {
        replica: R,
        size: fn(&R) -> usize,
        peak: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl<R> Gauged<R> {
        fn read(&self) {
            let size = (self.size)(&self.replica);
            self.peak
                .fetch_max(size, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl<M, R: Actor<M>> Actor<M> for Gauged<R> {
        fn on_start(&mut self, ctx: &mut Context<'_, M>) {
            self.replica.on_start(ctx);
        }

        fn on_message(&mut self, from: NodeId, msg: &M, ctx: &mut Context<'_, M>) {
            self.replica.on_message(from, msg, ctx);
            self.read();
        }

        fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, M>) {
            self.replica.on_timer(id, kind, ctx);
            self.read();
        }
    }

    /// Run `scenario` with `n` replicas built by `replica` and report,
    /// beside the outcome, the largest `size` any of them showed after any
    /// event — the white-box check that a structure holds only what is
    /// still in flight, however long the run.
    pub(crate) fn peak_size<P: ClientProtocol, R: Actor<P::Msg> + Send + 'static>(
        scenario: &Scenario,
        n: usize,
        mut replica: impl FnMut(ReplicaId, QuorumRules, Arc<KeyStore>) -> R,
        size: fn(&R) -> usize,
    ) -> (RunOutcome, usize) {
        let peak = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let out = launch::<P, _>(scenario, n, |me, q, store| Gauged {
            replica: replica(me, q, store),
            size,
            peak: peak.clone(),
        });
        let peak = peak.load(std::sync::atomic::Ordering::Relaxed);
        (out, peak)
    }

    /// A signed write and the digest of the state reached by executing it
    /// first.
    pub(crate) fn first_write(store: &KeyStore) -> (SignedRequest, Digest) {
        let txn = Transaction::single(Op::Put(7, 7));
        let signed = SignedRequest::new(store, Request::new(ClientId(0), 1, txn));
        let digest = StateMachine::new().execute(SeqNum(1), &signed.request).1;
        (signed, digest)
    }

    /// `(node, request, post-state digest)` of every execution observed.
    pub(crate) fn executions(out: &RunOutcome) -> Vec<(NodeId, RequestId, Digest)> {
        let entries = out.log.entries.iter();
        let executed = entries.filter_map(|e| match e.obs {
            Observation::Execute {
                request,
                state_digest,
                ..
            } => Some((e.node, request, state_digest)),
            _ => None,
        });
        executed.collect()
    }

    /// Run `script` as replica `from` against `replica` (installed as
    /// replica `script.to`) for 50 ms; the other two replicas stay silent.
    pub(crate) fn play<M, R>(from: u32, script: Script<M>, replica: R) -> RunOutcome
    where
        M: WireSize + Clone + serde::Serialize + Send + Sync + 'static,
        R: Actor<M> + Send + 'static,
    {
        let mut sim = Simulation::new(NetworkModel::new(NetworkConfig::lan()), 1);
        let to = script.to;
        let silent = |to| Script {
            to,
            now: Vec::new(),
            late: Vec::new(),
        };
        for id in (0..4).filter(|id| *id != from && *id != to) {
            sim.add_replica(id, Box::new(silent(to)));
        }
        sim.add_replica(from, Box::new(script));
        sim.add_replica(to, Box::new(replica));
        sim.run(SimTime(50_000_000));
        sim.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Minimal protocol message for driving the shared pieces.
    #[derive(Debug, Clone, PartialEq, serde::Serialize)]
    enum TMsg {
        Request(SignedRequest),
        Vote(u32),
    }

    impl WireSize for TMsg {
        fn wire_size(&self) -> usize {
            1
        }
    }

    /// An actor that runs one closure at start-up: the way to get a
    /// [`Context`] in a unit test.
    struct Script<F>(Option<F>);

    impl<F: FnOnce(&mut Context<'_, TMsg>)> Actor<TMsg> for Script<F> {
        fn on_start(&mut self, ctx: &mut Context<'_, TMsg>) {
            (self.0.take().expect("starts once"))(ctx);
        }

        fn on_message(&mut self, _: NodeId, _: &TMsg, _: &mut Context<'_, TMsg>) {}

        fn on_timer(&mut self, _: TimerId, _: TimerKind, ctx: &mut Context<'_, TMsg>) {
            ctx.observe(Observation::Marker { label: "timer" });
        }
    }

    /// Run `script` as replica 0 of a two-replica LAN (free crypto) and
    /// return everything the run observed.
    fn on_replica(script: impl FnOnce(&mut Context<'_, TMsg>) + 'static) -> RunOutcome {
        let mut sim = Simulation::new(NetworkModel::new(NetworkConfig::lan()), 1);
        sim.add_replica(0, Box::new(Script(Some(script))));
        sim.add_replica(1, Box::new(Script(Some(|_: &mut Context<'_, TMsg>| {}))));
        sim.run(SimTime(1_000_000));
        sim.finish()
    }

    fn signed(store: &KeyStore, client: u64, ts: u64, op: Op) -> SignedRequest {
        let txn = Transaction::single(op);
        SignedRequest::new(store, Request::new(ClientId(client), ts, txn))
    }

    /// A `deliver` closure that records `(request, sm seq)` into `sink`.
    type Sink = Rc<RefCell<Vec<(RequestId, SeqNum)>>>;
    fn record(sink: &Sink) -> impl FnMut(&mut Context<'_, TMsg>, Reply, SeqNum) {
        let sink = sink.clone();
        move |_, reply, seq| sink.borrow_mut().push((reply.request, seq))
    }

    fn executions(out: &RunOutcome) -> Vec<(SimTime, SeqNum)> {
        out.log
            .entries
            .iter()
            .filter_map(|e| match e.obs {
                Observation::Execute { seq, .. } => Some((e.at, seq)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn duplicate_in_a_batch_executes_once_when_skipping_executed() {
        let store = Scenario::small(1).key_store();
        let (a, b) = (
            signed(&store, 1, 1, Op::Add(0, 5)),
            signed(&store, 2, 1, Op::Add(0, 1)),
        );
        let replies = Sink::default();
        let sink = replies.clone();
        let out = on_replica(move |ctx| {
            let mut exec = Execution::new().skipping_executed();
            let batch = [a.clone(), a, b];
            assert!(exec.run(ctx, Some(&batch), View(3), record(&sink)));
            assert_eq!(exec.cursor(), SeqNum(1), "one slot, whatever it held");
            assert_eq!(exec.sm().store().get(0), Some(6));
        });
        let ids: Vec<u64> = replies.borrow().iter().map(|(id, _)| id.client.0).collect();
        assert_eq!(ids, vec![1, 2], "the duplicate is neither run nor answered");
        assert_eq!(executions(&out).len(), 2);
        // the slot is bracketed by the Execution and Ordering stages
        let stage = |e: &bft_sim::obs::LoggedObservation| match e.obs {
            Observation::StageEnter { stage } => Some(stage),
            _ => None,
        };
        let entries = &out.log.entries;
        assert_eq!(entries.first().and_then(stage), Some(Stage::Execution));
        assert_eq!(entries.last().and_then(stage), Some(Stage::Ordering));
    }

    #[test]
    fn retransmission_is_answered_from_the_cache_only_for_the_cached_id() {
        let store = Scenario::small(1).key_store();
        let first = signed(&store, 1, 1, Op::Put(1, 10));
        let second = signed(&store, 1, 2, Op::Put(1, 20));
        let fresh = signed(&store, 2, 1, Op::Get(1));
        let mut forged = second.clone();
        forged.request.txn = Transaction::single(Op::Put(1, 99));
        let answered = Sink::default();
        let sink = answered.clone();
        let out = on_replica(move |ctx| {
            let mut exec = Execution::new();
            let batch = [first.clone(), second.clone()];
            exec.run(ctx, Some(&batch), View(0), |_, _, _| {});
            let view = View(4);
            let admit = |ctx: &mut Context<'_, TMsg>, req| {
                Intake::admit(ctx, &store, &exec, req, view, record(&sink))
            };
            assert!(!admit(ctx, &second), "the latest request: answered");
            assert!(!admit(ctx, &first), "an older one: dropped silently");
            assert!(
                !admit(ctx, &forged),
                "a bad signature never reaches the cache"
            );
            assert!(admit(ctx, &fresh));
            let reply = exec.cached_reply(second.request.id, view).expect("cached");
            assert_eq!((reply.view, reply.speculative), (view, false));
            assert_eq!(exec.sm().last_executed(), SeqNum(2), "nothing re-executed");
        });
        let second_id = RequestId {
            client: ClientId(1),
            timestamp: 2,
        };
        assert_eq!(*answered.borrow(), vec![(second_id, SeqNum(2))]);
        assert_eq!(executions(&out).len(), 2);
    }

    #[test]
    fn speculative_run_then_rollback_restores_digest_and_executed_set() {
        let store = Scenario::small(1).key_store();
        let keep = signed(&store, 1, 1, Op::Put(1, 1));
        let undo = [
            signed(&store, 1, 2, Op::Put(1, 2)),
            signed(&store, 2, 1, Op::Put(2, 2)),
        ];
        let out = on_replica(move |ctx| {
            let mut exec = Execution::new().speculative();
            let spec = Sink::default();
            let first = std::slice::from_ref(&keep);
            exec.run(ctx, Some(first), View(0), record(&spec));
            let digest = exec.sm().digest();
            let spec_commit = Observation::Marker { label: "epilogue" };
            let check = |_: &mut Context<'_, TMsg>, reply: Reply, _| assert!(reply.speculative);
            exec.run_then(ctx, Some(&undo), View(0), check, |ctx| {
                ctx.observe(spec_commit)
            });
            assert!(exec.is_executed(&undo[1].request.id));
            exec.rollback(ctx, SeqNum(2));
            exec.set_cursor(SeqNum(1));
            assert_eq!(exec.sm().digest(), digest);
            assert_eq!(exec.sm().last_executed(), SeqNum(1));
            assert!(exec.is_executed(&keep.request.id));
            assert!(!exec.is_executed(&undo[0].request.id));
            assert!(!exec.is_executed(&undo[1].request.id));
            // the undone requests are new work again
            assert!(Intake::admit(
                ctx,
                &store,
                &exec,
                &undo[0],
                View(1),
                record(&spec)
            ));
            // nothing left to undo: no second observation
            exec.rollback(ctx, SeqNum(2));
        });
        let rollbacks = out.log.count(
            |e| matches!(e.obs, Observation::Rollback { from_seq } if from_seq == SeqNum(2)),
        );
        assert_eq!(rollbacks, 1);
        // the epilogue runs after the last request, inside the stage bracket
        let at = |obs: Observation| out.log.entries.iter().rposition(|e| e.obs == obs);
        let epilogue = at(Observation::Marker { label: "epilogue" }).expect("ran");
        assert_eq!(executions(&out).len(), 3);
        assert!(matches!(
            out.log.entries[epilogue - 1].obs,
            Observation::Execute { seq: SeqNum(3), .. }
        ));
        assert_eq!(
            out.log.entries[epilogue + 1].obs,
            Observation::StageEnter {
                stage: Stage::Ordering
            }
        );
    }

    #[test]
    fn slot_without_its_batch_waits_and_executes_when_the_batch_arrives() {
        let store = Scenario::small(1).key_store();
        let req = signed(&store, 1, 1, Op::Put(1, 1));
        let out = on_replica(move |ctx| {
            let mut exec = Execution::new();
            // committed, but the proposal has not been installed
            assert!(!exec.run(ctx, None, View(0), |_, _, _| unreachable!()));
            assert_eq!(exec.cursor(), SeqNum(0));
            assert_eq!(exec.sm().last_executed(), SeqNum(0));
            ctx.observe(Observation::Marker { label: "proposal" });
            assert!(exec.run(ctx, Some(&[req]), View(0), |_, _, _| {}));
            assert_eq!(exec.cursor(), SeqNum(1));
        });
        // nothing at all was observed before the proposal landed
        assert_eq!(
            out.log.entries[0].obs,
            Observation::Marker { label: "proposal" }
        );
        assert_eq!(executions(&out).len(), 1);
    }

    #[test]
    fn work_ops_charge_one_microsecond_per_unit_before_the_execute() {
        let store = Scenario::small(1).key_store();
        let mut busy = signed(&store, 1, 1, Op::Work(7));
        busy.request.txn.ops.push(Op::Work(3));
        let idle = signed(&store, 2, 1, Op::Get(0));
        let out = on_replica(move |ctx| {
            let mut exec = Execution::new();
            exec.run(ctx, Some(&[busy, idle]), View(0), |_, _, _| {});
        });
        assert_eq!(
            executions(&out),
            vec![(SimTime(10_000), SeqNum(1)), (SimTime(10_000), SeqNum(2))]
        );
    }

    #[test]
    fn relayed_requests_hold_one_view_timer_until_they_execute() {
        let store = Scenario::small(1).key_store();
        let req = signed(&store, 1, 1, Op::Put(1, 1));
        let out = on_replica(move |ctx| {
            let mut exec = Execution::new();
            let mut intake = Intake::new(SimDuration(500));
            intake.relay(ctx, &req, ReplicaId(1), TMsg::Request, false);
            assert!(intake.has_pending());
            assert!(intake.arm(ctx), "a view change in progress left τ2 alone");
            intake.relay(ctx, &req, ReplicaId(1), TMsg::Request, true);
            assert!(!intake.arm(ctx), "still the one τ2");
            intake.settle(ctx, &exec);
            assert!(intake.has_pending(), "not executed yet");
            exec.run(ctx, Some(&[req]), View(0), |_, _, _| {});
            intake.settle(ctx, &exec);
            assert!(!intake.has_pending());
            assert!(intake.arm(ctx), "settling the last request stopped τ2");
            intake.disarm(ctx);
        });
        assert_eq!(
            out.metrics.replica_msgs_sent(),
            2,
            "each relay is forwarded"
        );
        assert_eq!(
            out.log.marker_count("timer"),
            0,
            "both spans were cancelled"
        );
    }

    #[test]
    fn view_gate_buffers_ahead_replays_in_order_and_drops_stale() {
        let mut gate: ViewGate<TMsg> = ViewGate::new();
        let peer = NodeId::replica(1);
        assert!(gate.admit(peer, View(0), &TMsg::Vote(0)), "current view");
        // ahead of the view: buffered
        assert!(!gate.admit(peer, View(2), &TMsg::Vote(20)));
        assert!(!gate.admit(peer, View(1), &TMsg::Vote(10)));
        assert!(!gate.admit(NodeId::replica(2), View(1), &TMsg::Vote(11)));
        // same view while a view change is in progress: buffered too
        gate.set_in_view_change(true);
        assert!(!gate.admit(peer, View(0), &TMsg::Vote(1)));
        gate.install(View(1));
        assert!(!gate.in_view_change());
        // stale: dropped, not buffered
        assert!(!gate.admit(peer, View(0), &TMsg::Vote(2)));
        let replay = gate.replay_after_install();
        assert_eq!(
            replay,
            vec![(peer, TMsg::Vote(10)), (NodeId::replica(2), TMsg::Vote(11))],
            "exactly the new view's messages, in arrival order"
        );
        assert!(gate.replay_after_install().is_empty());
        // view 2's message survived; view 0's same-view message did not
        gate.install(View(2));
        assert_eq!(gate.replay_after_install(), vec![(peer, TMsg::Vote(20))]);
        // the buffer is bounded
        for i in 0..ViewGate::<TMsg>::CAPACITY as u32 + 5 {
            assert!(!gate.admit(peer, View(3), &TMsg::Vote(i)));
        }
        gate.install(View(3));
        assert_eq!(
            gate.replay_after_install().len(),
            ViewGate::<TMsg>::CAPACITY
        );
    }

    #[test]
    fn drain_stops_at_a_missing_batch_or_slot_and_resumes_when_it_arrives() {
        let store = Scenario::small(1).key_store();
        let reqs: Vec<SignedRequest> = (1..=3)
            .map(|ts| signed(&store, 1, ts, Op::Put(ts, 1)))
            .collect();
        let replies = Sink::default();
        let sink = replies.clone();
        on_replica(move |ctx| {
            let mut exec = Execution::new();
            let mut log: SlotLog<u8> = SlotLog::default();
            let digest = |r: &SignedRequest| digest_of(&vec![r.clone()]);
            let mut drain = |ctx: &mut Context<'_, TMsg>, log: &mut SlotLog<u8>| {
                let mut slots = Vec::new();
                let after = |_: &mut Context<'_, TMsg>, exec: &mut Execution, _: &mut _, seq| {
                    assert_eq!(exec.cursor(), seq, "called once the slot has executed");
                    slots.push(seq.0);
                };
                exec.drain(ctx, log, View(0), record(&sink), after);
                slots
            };
            // slot 1 committed by a certificate that outran its proposal
            let slot = log.slot(SeqNum(1));
            (slot.digest, slot.committed) = (Some(digest(&reqs[0])), true);
            // slot 3 fully there, slot 2 missing altogether
            assert!(log.install(SeqNum(3), digest(&reqs[2]), vec![reqs[2].clone()]));
            log.slot(SeqNum(3)).committed = true;
            assert!(drain(ctx, &mut log).is_empty(), "committed, but no batch");
            // the proposal lands: slot 1 runs, the gap at 2 stops the loop
            assert!(log.install(SeqNum(1), digest(&reqs[0]), vec![reqs[0].clone()]));
            assert!(!log.install(SeqNum(1), digest(&reqs[1]), vec![reqs[1].clone()]));
            assert_eq!(drain(ctx, &mut log), vec![1]);
            // slot 2 installed but not committed: still stopped
            assert!(log.install(SeqNum(2), digest(&reqs[1]), vec![reqs[1].clone()]));
            assert!(drain(ctx, &mut log).is_empty());
            log.slot(SeqNum(2)).committed = true;
            assert_eq!(drain(ctx, &mut log), vec![2, 3], "resumes through slot 3");
        });
        let order: Vec<u64> = replies
            .borrow()
            .iter()
            .map(|(id, _)| id.timestamp)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn strand_returns_dead_slots_and_requeue_skips_what_executed() {
        let store = Scenario::small(1).key_store();
        let reqs: Vec<SignedRequest> = (1..=5)
            .map(|ts| signed(&store, 1, ts, Op::Put(ts, 1)))
            .collect();
        let batch = reqs.clone();
        on_replica(move |ctx| {
            let mut exec = Execution::new();
            let mut log: SlotLog<Vec<u32>> = SlotLog::default();
            for (i, r) in batch.iter().enumerate() {
                let seq = SeqNum(i as u64 + 1);
                log.install(seq, digest_of(&vec![r.clone()]), vec![r.clone()]);
                log.slot(seq).ext.push(7);
            }
            log.slot(SeqNum(1)).committed = true;
            exec.drain(ctx, &mut log, View(0), |_, _, _| {}, |_, _, _, _| {});
            assert_eq!(exec.cursor(), SeqNum(1));
            let in_flight: Vec<u64> = log
                .in_flight(exec.cursor())
                .map(|id| id.timestamp)
                .collect();
            assert_eq!(in_flight, vec![2, 3, 4, 5]);
            // the new view re-proposes slots 2 and 4: 3 and 5 die, 1 executed
            let stranded = log.strand(exec.cursor(), &[SeqNum(2), SeqNum(4)]);
            let ids: Vec<u64> = stranded.iter().map(|r| r.request.id.timestamp).collect();
            assert_eq!(ids, vec![3, 5]);
            assert_eq!(log.keys().map(|s| s.0).collect::<Vec<_>>(), vec![1, 2, 4]);
            // request 1 executed, request 3 is queued already: only 5 is new
            let mut mempool = VecDeque::from([batch[2].clone()]);
            let mut back = stranded.clone();
            back.push(batch[0].clone());
            requeue_unexecuted(&mut mempool, &exec, &back);
            let queued: Vec<u64> = mempool.iter().map(|r| r.request.id.timestamp).collect();
            assert_eq!(queued, vec![3, 5]);
            // a reinstalled slot starts the new view's agreement from scratch
            log.slot(SeqNum(2)).committed = true;
            let slot = log.reinstall(SeqNum(2), Digest::ZERO, vec![batch[4].clone()]);
            assert!(slot.ext.is_empty() && !slot.committed);
            assert_eq!(slot.digest, Some(Digest::ZERO));
            let entries = log.entries_above(exec.cursor(), |s| s.ext.is_empty());
            assert_eq!(
                entries,
                vec![(SeqNum(2), Digest::ZERO, vec![batch[4].clone()])]
            );
        });
    }

    #[test]
    fn view_change_votes_dedupe_join_assemble_prune_and_escalate() {
        let q = QuorumRules { n: 4, f: 1 };
        let me = (ReplicaId(2), q); // leads view 2
        let (normal, campaigning) = ((View(0), false), (View(0), true));
        let entry = |seq, payload: u8| vec![(SeqNum(seq), Digest::ZERO, payload)];
        let mut votes: ViewChange<u8> = ViewChange::default();
        let mut vote = |at, from, target, report| {
            let step = votes.record(me, 3, at, ReplicaId(from), View(target), report);
            (step, votes.votes(View(target)).len())
        };
        // one vote is below f+1; the same sender again changes nothing
        assert_eq!(vote(normal, 0, 2, entry(7, 10)), (VcStep::Wait, 1));
        assert_eq!(vote(normal, 0, 2, entry(7, 11)), (VcStep::Wait, 1));
        // f+1 distinct voters: join — but only a replica not yet campaigning
        assert_eq!(vote(normal, 1, 2, entry(7, 20)), (VcStep::Join, 2));
        // the quorum, at the target's leader, while campaigning: assemble
        assert_eq!(vote(campaigning, 2, 2, entry(8, 30)), (VcStep::Assemble, 3));
        assert_eq!(vote(campaigning, 3, 5, Vec::new()), (VcStep::Wait, 1));
        assert_eq!(
            votes.first_seen_union(View(2)),
            vec![(SeqNum(7), Digest::ZERO, 10), (SeqNum(8), Digest::ZERO, 30)],
            "per slot, the first entry reported"
        );
        // a replica that does not lead the target assembles nothing, whatever
        // it holds; neither does the leader below its quorum
        let mut other: ViewChange<u8> = ViewChange::default();
        for (from, holder, quorum, want) in [
            (0, ReplicaId(1), 3, VcStep::Wait),
            (1, ReplicaId(1), 3, VcStep::Wait),
            (2, ReplicaId(1), 3, VcStep::Wait),
            (3, ReplicaId(2), 5, VcStep::Wait),
        ] {
            let from = ReplicaId(from);
            let got = other.record((holder, q), quorum, campaigning, from, View(2), Vec::new());
            assert_eq!(got, want);
        }
        // τ2: past every view voted for while campaigning, else view + 1
        // only if work is pending
        assert!(votes.covers(View(5)) && !votes.covers(View(6)));
        assert_eq!(votes.escalation(View(0), true, false), Some(View(6)));
        assert_eq!(votes.escalation(View(0), false, true), Some(View(1)));
        assert_eq!(votes.escalation(View(0), false, false), None);
        // installing view 2 drops its votes and older ones, keeps view 5's
        votes.prune(View(2));
        assert!(votes.votes(View(2)).is_empty());
        assert_eq!(votes.votes(View(5)).len(), 1);
        votes.prune(View(5));
        assert_eq!(votes.escalation(View(5), true, false), Some(View(6)));
    }

    /// The driver polls the engine's accept counter at the 50 ms stop
    /// points where it used to re-count the whole log: the stop time and
    /// the event count of a closed-loop run, an open-loop run and a drained
    /// (Q/U) run are those of commit `db65181`, the last with the recount.
    #[test]
    fn driver_stops_where_the_log_recount_stopped() {
        use crate::registry::ProtocolId;
        let closed = Scenario::small(1).with_load(2, 150);
        let open_loop = bft_core::workload::WorkloadConfig::uniform().open_loop(500);
        let open = Scenario::small(1).with_load(2, 40).with_workload(open_loop);
        for (protocol, scenario, want) in [
            (ProtocolId::Pbft, &closed, (100_000_000, 9_471)),
            (ProtocolId::Pbft, &open, (100_000_000, 2_610)),
            (ProtocolId::Qu, &closed, (100_000_000, 3_900)),
        ] {
            let out = protocol.run(scenario);
            let accepted = out.log.client_latencies().len() as u64;
            assert_eq!(accepted, scenario.total_requests());
            assert_eq!((out.end_time.0, out.events_processed), want);
        }
    }

    #[test]
    fn signed_request_verifies() {
        let s = Scenario::small(1);
        let store = s.key_store();
        let req = Request::new(ClientId(1), 1, bft_types::Transaction::default());
        let signed = SignedRequest::new(&store, req);
        assert!(signed.verify(&store));
        // tampering breaks it
        let mut bad = signed.clone();
        bad.request.id.timestamp = 99;
        assert!(!bad.verify(&store));
    }

    #[test]
    fn catchup_targets_rotate_and_skip_self() {
        let mut c = Catchup::new(ReplicaId(1), 4, TimerKind::T1WaitReplies, SimDuration(1000));
        assert_eq!(c.targets(), vec![ReplicaId(0), ReplicaId(2)]);
        assert_eq!(c.targets(), vec![ReplicaId(3), ReplicaId(0)]);
        assert_eq!(c.targets(), vec![ReplicaId(2), ReplicaId(3)]);
        // backoff doubles per retry and caps at 8× base
        assert_eq!(c.backoff(), SimDuration(1000));
        c.attempt = 1;
        assert_eq!(c.backoff(), SimDuration(2000));
        c.attempt = 5;
        assert_eq!(c.backoff(), SimDuration(8000));
    }

    #[test]
    fn scenario_n_override_respects_minimum() {
        let mut s = Scenario::small(1);
        assert_eq!(s.n(4), 4);
        s.n_override = Some(7);
        assert_eq!(s.n(4), 7);
        s.n_override = Some(2);
        assert_eq!(s.n(4), 4, "cannot go below the protocol minimum");
    }
}
