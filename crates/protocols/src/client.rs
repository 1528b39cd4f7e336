//! The client stage of the lifecycle (dimension P6), the launcher and the
//! run driver.
//!
//! * [`GenericClient`] — the requester client of every registry protocol
//!   but Q/U. It owns the workload draw, signing and its charge, pacing,
//!   one [`Pending`] record per request in flight (the signed request, its
//!   submission time, its reply collector and retransmission timer), the
//!   leader hint and the `ClientAccept` observation. Closed loop is open
//!   loop with at most one request in flight: the next submission follows
//!   a completion instead of the arrival timer.
//! * [`ClientProtocol`] — what a protocol hooks into it: how a request is
//!   first sent, what a reply or other message does to its request's
//!   record (and whether the acceptance took the fast path), and what a
//!   retransmission timeout does; plus the timeout and the reply check as
//!   properties. PBFT-RO's read quorum and Zyzzyva's repairer are such
//!   hooks. Q/U keeps its own client: there the client is the proposer and
//!   repairer, its version cache spans requests and a retry mints a new
//!   request id.
//! * [`launch`] / [`launch_with_clients`] — build the engine, install
//!   replicas and clients, run to completion.

use std::collections::BTreeMap;
use std::sync::Arc;

use bft_core::client::{CollectStatus, ReplyCollector};
use bft_core::workload::Workload;
use bft_crypto::sign::PartyId;
use bft_crypto::{CryptoOp, KeyStore, Signer};
use bft_sim::{
    Actor, Context, Engine, NodeId, Observation, RunOutcome, SimDuration, SimTime, TimerId,
};
use bft_types::{
    ClientId, QuorumRules, ReplicaId, Reply, Request, RequestId, TimerKind, TxnResult, WireSize,
};

use crate::common::{Scenario, SignedRequest};

/// Where a generic client first sends a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitPolicy {
    /// Send to the believed leader; on retransmit, broadcast (PBFT rule).
    LeaderThenBroadcast,
    /// Always broadcast to all replicas (rotating-leader and fair
    /// protocols).
    Broadcast,
}

/// One request in flight: the shared record every protocol's hooks act on.
pub struct Pending<X> {
    /// The signed request.
    pub signed: SignedRequest,
    sent_at: SimTime,
    /// The replies heard so far.
    pub collector: ReplyCollector,
    timer: TimerId,
    /// Whether a retransmission timeout has fired for it.
    pub retransmitted: bool,
    /// What the protocol tracks beyond the shared fields.
    pub extra: X,
}

/// Hooks a protocol provides to use [`GenericClient`].
pub trait ClientProtocol: Send + 'static {
    /// The protocol's message type.
    type Msg: WireSize + Clone + serde::Serialize + Send + Sync + 'static;

    /// Per-request state beyond the shared record (`()` for a plain
    /// requester).
    type Extra: Default + Send;

    /// Submission policy.
    const SUBMIT: SubmitPolicy;

    /// The retransmission timeout, in multiples of Δ.
    const RETRANSMIT_DELTAS: u64 = 4;

    /// What checking one reply costs.
    const REPLY_CHECK: CryptoOp = CryptoOp::Verify;

    /// Wrap a signed request for submission.
    fn wrap_request(req: SignedRequest) -> Self::Msg;

    /// Extract a reply, if this message is one.
    fn unwrap_reply(msg: &Self::Msg) -> Option<&Reply>;

    /// The reply quorum for the given rules: `f+1` matching replies unless
    /// the protocol says otherwise.
    fn reply_quorum(q: &QuorumRules) -> usize {
        q.weak()
    }

    /// The request a replica's message is about: a reply's, unless the
    /// protocol sends its clients more than replies.
    fn request_of(msg: &Self::Msg) -> Option<RequestId> {
        Self::unwrap_reply(msg).map(|r| r.request)
    }

    /// Send a request for the first time, as [`Self::SUBMIT`] says.
    fn submit(signed: SignedRequest, leader: ReplicaId, ctx: &mut Context<'_, Self::Msg>) {
        let msg = Self::wrap_request(signed);
        match Self::SUBMIT {
            SubmitPolicy::LeaderThenBroadcast => ctx.send(NodeId::Replica(leader), msg),
            SubmitPolicy::Broadcast => ctx.broadcast_replicas(msg),
        }
    }

    /// What a message from `from` does to its request's record:
    /// `Some((result, fast path))` accepts the request. By default a reply
    /// joins the collector and a quorum of matching replies is accepted,
    /// on the fast path if they are speculative and the request was never
    /// retransmitted.
    fn on_reply(
        from: ReplicaId,
        msg: &Self::Msg,
        rec: &mut Pending<Self::Extra>,
        q: &QuorumRules,
        _ctx: &mut Context<'_, Self::Msg>,
    ) -> Option<(TxnResult, bool)> {
        let reply = Self::unwrap_reply(msg)?;
        match rec
            .collector
            .offer(from, reply.clone(), Self::reply_quorum(q))
        {
            CollectStatus::Complete { reply, .. } => {
                Some((reply.result, !rec.retransmitted && reply.speculative))
            }
            _ => None,
        }
    }

    /// What a retransmission timeout does (`rec.retransmitted` still says
    /// whether one fired before): by default broadcast the request, so a
    /// faulty leader cannot suppress it for ever.
    fn on_timeout(
        rec: &mut Pending<Self::Extra>,
        _q: &QuorumRules,
        ctx: &mut Context<'_, Self::Msg>,
    ) {
        ctx.broadcast_replicas(Self::wrap_request(rec.signed.clone()));
    }
}

/// The requester client of every registry protocol but Q/U: signs and
/// submits the workload's requests, keeps one [`Pending`] record per
/// request in flight, re-arms its retransmission timer on each timeout and
/// records `ClientAccept` observations for latency accounting.
///
/// Pacing follows the scenario workload's [`Arrival`](bft_core::Arrival)
/// knob: closed loop (one request in flight, the default: the next is
/// submitted when one is accepted) or open loop (submissions on a fixed
/// virtual-time schedule with arbitrarily many in flight — the
/// million-request throughput mode).
pub struct GenericClient<P: ClientProtocol> {
    id: ClientId,
    q: QuorumRules,
    /// This client's signer, its key absorbed once.
    signer: Signer,
    workload: Workload,
    total: u64,
    sent: u64,
    leader_hint: ReplicaId,
    retransmit: SimDuration,
    /// `Some(interarrival)` in open loop.
    arrival: Option<SimDuration>,
    /// Requests awaiting acceptance, keyed by request id.
    outstanding: BTreeMap<RequestId, Pending<P::Extra>>,
    /// Retransmission timers → the request they guard.
    retransmit_ids: BTreeMap<TimerId, RequestId>,
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
            signer: scenario.key_store().signer_for(PartyId::client(id)),
            workload: scenario.workload_for(id),
            total: scenario.requests_per_client,
            sent: 0,
            leader_hint: ReplicaId(0),
            retransmit: SimDuration(scenario.network.delta.0 * P::RETRANSMIT_DELTAS),
            arrival,
            outstanding: BTreeMap::new(),
            retransmit_ids: BTreeMap::new(),
        }
    }

    /// Sign and send the next request of the stream, if any is left.
    fn send_next(&mut self, ctx: &mut Context<'_, P::Msg>) {
        if self.sent >= self.total {
            return;
        }
        self.sent += 1;
        let request = Request::new(self.id, self.sent, self.workload.next_txn());
        let id = request.id;
        let signed = SignedRequest::new(&self.signer, request);
        ctx.charge_crypto(CryptoOp::Sign);
        let sent_at = ctx.now();
        P::submit(signed.clone(), self.leader_hint, ctx);
        let timer = ctx.set_timer(TimerKind::T1WaitReplies, self.retransmit);
        self.retransmit_ids.insert(timer, id);
        let rec = Pending {
            signed,
            sent_at,
            collector: ReplyCollector::new(),
            timer,
            retransmitted: false,
            extra: P::Extra::default(),
        };
        self.outstanding.insert(id, rec);
    }

    /// Send the next request, and in open loop arm the next arrival while
    /// the stream lasts.
    fn arrive(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.send_next(ctx);
        if let Some(interarrival) = self.arrival.filter(|_| self.sent < self.total) {
            ctx.set_timer(TimerKind::T7Heartbeat, interarrival);
        }
    }
}

impl<P: ClientProtocol> Actor<P::Msg> for GenericClient<P> {
    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.arrive(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: &P::Msg, ctx: &mut Context<'_, P::Msg>) {
        let NodeId::Replica(replica) = from else {
            return;
        };
        let Some(id) = P::request_of(msg) else {
            return;
        };
        let Some(rec) = self.outstanding.get_mut(&id) else {
            return;
        };
        ctx.charge_crypto(P::REPLY_CHECK);
        if let Some(reply) = P::unwrap_reply(msg) {
            self.leader_hint = reply.view.leader_of(self.q.n);
        }
        let Some((result, fast_path)) = P::on_reply(replica, msg, rec, &self.q, ctx) else {
            return;
        };
        let rec = self.outstanding.remove(&id).expect("present");
        ctx.cancel_timer(rec.timer);
        self.retransmit_ids.remove(&rec.timer);
        ctx.observe(Observation::ClientAccept {
            request: id,
            sent_at: rec.sent_at,
            fast_path,
            txn: rec.signed.request.txn,
            result,
        });
        if self.arrival.is_none() {
            self.send_next(ctx);
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, P::Msg>) {
        if kind == TimerKind::T7Heartbeat {
            // the open-loop arrival schedule
            self.arrive(ctx);
            return;
        }
        let Some(rid) = self.retransmit_ids.remove(&id) else {
            return;
        };
        let Some(rec) = self.outstanding.get_mut(&rid) else {
            return;
        };
        P::on_timeout(rec, &self.q, ctx);
        rec.retransmitted = true;
        rec.timer = ctx.set_timer(TimerKind::T1WaitReplies, self.retransmit);
        self.retransmit_ids.insert(rec.timer, rid);
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
/// of every protocol but Q/U.
pub fn launch<P: ClientProtocol, R: Actor<P::Msg> + Send + 'static>(
    scenario: &Scenario,
    n: usize,
    replica: impl FnMut(ReplicaId, QuorumRules, Arc<KeyStore>) -> R,
) -> RunOutcome {
    launch_with_clients(scenario, n, SimDuration::ZERO, replica, |c, q| {
        GenericClient::<P>::new(scenario, q, c)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let accepted = out.log.accepted() as u64;
            assert_eq!(accepted, scenario.total_requests());
            assert_eq!((out.end_time.0, out.events_processed), want);
        }
    }
}
