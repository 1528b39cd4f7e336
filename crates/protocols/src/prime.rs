//! Prime-style robust BFT (Amir et al. '11): design choice 12, *robust*.
//!
//! Pessimistic protocols guarantee safety under attack but their
//! *performance* can be destroyed by a malicious leader that delays
//! proposals just below the view-change timeout. Prime bounds this damage
//! with two additions (the paper's robust function):
//!
//! * **Preordering** — on receiving a client request, a replica broadcasts
//!   a preorder-request; all replicas acknowledge all-to-all. A request
//!   acknowledged by 2f+1 replicas is *eligible*, and every correct replica
//!   knows when it became eligible. Clients broadcast, so a request is
//!   preordered once per origin; the leader orders it once, by whichever
//!   copy became eligible first.
//! * **Leader monitoring (τ7)** — replicas periodically check the age of
//!   their oldest eligible-but-unordered request. A correct leader orders
//!   eligible requests within a couple of network round-trips; a leader
//!   that does not is demonstrably slow — regardless of how cleverly it
//!   stays below the view-change timeout — and is replaced.
//!
//! The ordering core is PBFT's three phases. The trade-off: ~3n² extra
//! preordering messages per request buy an attack-latency bound of
//! `O(Δ + heartbeat)` instead of `O(view-timeout)` — reproduced by
//! experiment DC12 against PBFT under the same delay adversary.

use std::collections::BTreeMap;
use std::sync::Arc;

use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, Observation, RestartMode, SimDuration, SimTime, TimerId};
use bft_types::{
    Digest, QuorumRules, ReplicaId, Reply, RequestId, SeqNum, TimerKind, View, WireSize,
};

use crate::client::{launch, ClientProtocol, SubmitPolicy};
use crate::common::{
    reply_to_client, BatchEntry, Core, Execution, Intake, RoundRules, Rounds, Scenario,
    SignedRequest, Tally, ViewChanger, ViewMsg,
};

/// Prime messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum PrimeMsg {
    /// Client → any replica (broadcast).
    Request(SignedRequest),
    /// Replica → client.
    Reply(Reply),
    /// Preorder: origin replica announces a request.
    PoRequest {
        /// Originating replica.
        origin: ReplicaId,
        /// Origin-local sequence number.
        origin_seq: u64,
        /// The request.
        request: SignedRequest,
    },
    /// Preorder acknowledgment (all-to-all).
    PoAck {
        /// Origin of the acknowledged request.
        origin: ReplicaId,
        /// Origin-local sequence number.
        origin_seq: u64,
        /// Request digest.
        digest: Digest,
        /// Acknowledging replica.
        from: ReplicaId,
    },
    /// Ordering phase 1: leader proposes a batch of eligible requests.
    PrePrepare {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Batch digest.
        digest: Digest,
        /// Batch.
        batch: Vec<SignedRequest>,
    },
    /// Ordering phase 2 (quadratic).
    Prepare {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Sender.
        from: ReplicaId,
    },
    /// Ordering phase 3 (quadratic).
    Commit {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Sender.
        from: ReplicaId,
    },
    /// View change (performance- or timeout-triggered): votes carry the
    /// sender's prepared slots.
    View(ViewMsg<Vec<SignedRequest>>),
}

impl WireSize for PrimeMsg {
    fn wire_size(&self) -> usize {
        match self {
            PrimeMsg::Request(r) => 1 + r.wire_size(),
            PrimeMsg::Reply(r) => 1 + r.wire_size(),
            PrimeMsg::PoRequest { request, .. } => 1 + 4 + 8 + request.wire_size() + 64,
            PrimeMsg::PoAck { .. } => 1 + 4 + 8 + 32 + 4 + 64,
            PrimeMsg::PrePrepare { batch, .. } => 1 + 16 + 32 + batch.wire_size() + 64,
            PrimeMsg::Prepare { .. } | PrimeMsg::Commit { .. } => 1 + 16 + 32 + 4 + 64,
            PrimeMsg::View(m) => m.wire_size(64, WireSize::wire_size),
        }
    }
}

/// Leader behavior for the robustness experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimeBehavior {
    /// Follows the protocol.
    Honest,
    /// As leader, delays every proposal by this much virtual time (the
    /// Prime attack model: slow enough to hurt, below the view-change
    /// timeout).
    DelayLeader(SimDuration),
}

/// Tracking of one preordered copy of a request: its acks count only for
/// the request's own digest.
#[derive(Debug, Clone)]
struct PreorderEntry {
    request: SignedRequest,
    digest: Digest,
    acks: Tally,
    eligible_at: Option<SimTime>,
}

/// A Prime replica.
pub struct PrimeReplica {
    core: Core<PrimeMsg, Rounds, Vec<SignedRequest>>,
    /// PBFT's prepare → commit pair, signed.
    rounds: RoundRules<PrimeMsg, Rounds>,
    behavior: PrimeBehavior,
    /// Preorder state keyed by (origin, origin_seq), until the request has
    /// executed. Clients broadcast, so a request has one copy per origin.
    preorder: BTreeMap<(ReplicaId, u64), PreorderEntry>,
    /// Requests this replica originated (origin_seq counter).
    my_origin_seq: u64,
    /// Every request seen, and whether a live proposal carries it. All
    /// copies of a request share this flag, so it is ordered once.
    ordered: BTreeMap<RequestId, bool>,
    /// τ7 heartbeat timer (performance monitor).
    monitor_timer: Option<TimerId>,
    heartbeat: SimDuration,
    /// Maximum tolerated age of an eligible-but-unordered request.
    order_bound: SimDuration,
    batch_size: usize,
}

impl PrimeReplica {
    /// Create a replica.
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        behavior: PrimeBehavior,
        heartbeat: SimDuration,
        order_bound: SimDuration,
        (batch_size, checkpoint_interval): (usize, u64),
    ) -> Self {
        // τ2 runs only while campaigning (in normal operation the τ7
        // monitor holds the leader accountable), for twice the ordering
        // bound: 4Δ, the family's view-change timeout
        let timing = (SimDuration(order_bound.0 * 2), checkpoint_interval);
        let exec = Execution::new().skipping_executed();
        PrimeReplica {
            core: Core::new((me, q, store), PrimeMsg::View, exec, timing, batch_size),
            rounds: RoundRules {
                me,
                ext: |rounds| rounds,
                prepare_quorum: 2 * q.f, // besides the leader's pre-prepare
                commit_quorum: q.quorum(),
                auth: (CryptoOp::Sign, 1),
                prepare: |view, seq, digest, from| PrimeMsg::Prepare {
                    view,
                    seq,
                    digest,
                    from,
                },
                commit: |view, seq, digest, from| PrimeMsg::Commit {
                    view,
                    seq,
                    digest,
                    from,
                },
            },
            behavior,
            preorder: BTreeMap::new(),
            my_origin_seq: 0,
            ordered: BTreeMap::new(),
            monitor_timer: None,
            heartbeat,
            order_bound,
            batch_size,
        }
    }

    // ---- preordering -------------------------------------------------------

    fn originate(&mut self, signed: SignedRequest, ctx: &mut Context<'_, PrimeMsg>) {
        if self.ordered.contains_key(&signed.request.id)
            || self.core.exec.is_executed(&signed.request.id)
        {
            return;
        }
        self.my_origin_seq += 1;
        let key = (self.core.me, self.my_origin_seq);
        self.ordered.insert(signed.request.id, false);
        let digest = signed.digest();
        let mut acks = Tally::default();
        acks.vote(self.core.me, digest, Some(digest), self.core.q.quorum());
        let entry = PreorderEntry {
            request: signed.clone(),
            digest,
            acks,
            eligible_at: None,
        };
        self.preorder.insert(key, entry);
        ctx.charge_crypto(CryptoOp::Sign);
        let me = self.core.me;
        let origin_seq = self.my_origin_seq;
        ctx.broadcast_replicas(PrimeMsg::PoRequest {
            origin: me,
            origin_seq,
            request: signed,
        });
    }

    fn on_po_request(
        &mut self,
        origin: ReplicaId,
        origin_seq: u64,
        request: SignedRequest,
        ctx: &mut Context<'_, PrimeMsg>,
    ) {
        ctx.charge_crypto(CryptoOp::Verify);
        if !request.verify(&self.core.store) {
            return;
        }
        let key = (origin, origin_seq);
        let digest = request.digest();
        self.ordered.entry(request.request.id).or_insert(false);
        self.preorder.entry(key).or_insert(PreorderEntry {
            request,
            digest,
            acks: Tally::default(),
            eligible_at: None,
        });
        // acknowledge all-to-all
        ctx.charge_crypto(CryptoOp::Sign);
        let me = self.core.me;
        ctx.broadcast_replicas(PrimeMsg::PoAck {
            origin,
            origin_seq,
            digest,
            from: me,
        });
        self.on_po_ack((origin, origin_seq), me, digest, ctx);
    }

    /// Count `from`'s ack of the copy `key` for `digest`: a quorum of acks
    /// for the copy's own digest makes the request eligible.
    fn on_po_ack(
        &mut self,
        key: (ReplicaId, u64),
        from: ReplicaId,
        digest: Digest,
        ctx: &mut Context<'_, PrimeMsg>,
    ) {
        let quorum = self.core.q.quorum();
        let now = ctx.now();
        let Some(entry) = self.preorder.get_mut(&key) else {
            return;
        };
        let eligible = entry.acks.vote(from, digest, Some(entry.digest), quorum);
        if eligible.is_some() {
            entry.eligible_at = Some(now);
            ctx.observe(Observation::Marker { label: "eligible" });
            if self.core.is_leader() {
                self.propose_eligible(ctx);
            }
        }
    }

    // ---- ordering core (PBFT shape) ---------------------------------------

    fn propose_eligible(&mut self, ctx: &mut Context<'_, PrimeMsg>) {
        if !self.core.is_leader() || self.core.gate.in_view_change() {
            return;
        }
        loop {
            // eligible copies of unordered requests, in eligibility order
            let mut todo: Vec<(SimTime, (ReplicaId, u64))> = self
                .preorder
                .iter()
                .filter(|(_, e)| self.awaits_order(&e.request.request.id))
                .filter_map(|(k, e)| Some((e.eligible_at?, *k)))
                .collect();
            if todo.is_empty() || self.core.next_seq > self.core.high_water() {
                break;
            }
            todo.sort_unstable();
            // the earliest eligible copy orders its request; later copies
            // of the same request are skipped
            let mut batch: Vec<SignedRequest> = Vec::new();
            for (_, k) in todo {
                let request = &self.preorder[&k].request;
                let ordered = self.ordered.get_mut(&request.request.id).expect("seen");
                if !std::mem::replace(ordered, true) {
                    batch.push(request.clone());
                    if batch.len() == self.batch_size {
                        break;
                    }
                }
            }
            let seq = self.core.next_seq;
            self.core.next_seq = self.core.next_seq.next();
            let digest = digest_of(&batch);
            ctx.charge_crypto(CryptoOp::Hash);
            ctx.charge_crypto(CryptoOp::Sign);
            if let PrimeBehavior::DelayLeader(d) = self.behavior {
                ctx.charge(d); // the delay attack
            }
            let view = self.core.gate.view();
            self.core.log.install(seq, digest, batch.clone());
            ctx.broadcast_replicas(PrimeMsg::PrePrepare {
                view,
                seq,
                digest,
                batch,
            });
        }
    }

    /// Is this request neither carried by a live proposal nor executed?
    fn awaits_order(&self, id: &RequestId) -> bool {
        !self.ordered[id] && !self.core.exec.is_executed(id)
    }

    // ---- the performance monitor (τ7) --------------------------------------

    fn check_leader_performance(&mut self, ctx: &mut Context<'_, PrimeMsg>) {
        // an executed request's entry has one thing left to do — announce
        // its eligibility; dropping it after that, once per heartbeat, keeps
        // this scan and the proposer's to the requests still in flight
        let exec = &self.core.exec;
        self.preorder
            .retain(|_, e| e.eligible_at.is_none() || !exec.is_executed(&e.request.request.id));
        if self.core.gate.in_view_change() {
            return;
        }
        let now = ctx.now();
        // the oldest eligible request not yet ordered by the leader
        let oldest: Option<SimTime> = self
            .preorder
            .values()
            .filter(|e| self.awaits_order(&e.request.request.id))
            .filter_map(|e| e.eligible_at)
            .min();
        if let Some(t) = oldest {
            if now.since(t) > self.order_bound {
                // the leader is provably underperforming: a correct leader
                // orders an eligible request within the bound
                ctx.observe(Observation::Marker {
                    label: "leader-underperforming",
                });
                let target = self.core.gate.view().next();
                self.start_view_change(target, ctx);
            }
        }
    }
}

impl ViewChanger for PrimeReplica {
    type Msg = PrimeMsg;
    type Ext = Rounds;
    type Payload = Vec<SignedRequest>;

    fn core(&mut self) -> &mut Core<PrimeMsg, Rounds, Vec<SignedRequest>> {
        &mut self.core
    }

    /// The slots this replica holds a prepare quorum for.
    fn report(&mut self, _: &mut Context<'_, PrimeMsg>) -> Vec<BatchEntry> {
        self.core.open_entries(|s| s.ext.prepared())
    }

    fn adopt(&mut self, (seq, digest, batch): BatchEntry, ctx: &mut Context<'_, PrimeMsg>) {
        let (view, leads) = (self.core.gate.view(), self.core.is_leader());
        let slot = self.core.log.reinstall(seq, digest, batch);
        if !leads && self.rounds.prepare(ctx, slot, (view, seq), digest, None) {
            self.execute(ctx);
        }
    }

    /// Dead slots release their requests, every copy, back to the
    /// eligible pool.
    fn requeue(&mut self, stranded: Vec<SignedRequest>) {
        for id in stranded.iter().map(|r| r.request.id) {
            if let Some(ordered) = self.ordered.get_mut(&id) {
                *ordered &= self.core.exec.is_executed(&id);
            }
        }
    }

    fn resume(&mut self, ctx: &mut Context<'_, PrimeMsg>) {
        self.propose_eligible(ctx);
    }

    fn execute(&mut self, ctx: &mut Context<'_, PrimeMsg>) {
        let deliver = reply_to_client(Some(CryptoOp::Sign), PrimeMsg::Reply);
        self.core.drain(ctx, deliver, |_, _, _, _| {});
    }

    fn forget(&mut self, amnesia: bool) {
        self.monitor_timer = None;
        if amnesia {
            (self.preorder, self.ordered) = (BTreeMap::new(), BTreeMap::new());
            self.my_origin_seq = 0;
        }
    }

    /// The τ7 performance monitor.
    fn arm_periodic(&mut self, ctx: &mut Context<'_, PrimeMsg>) {
        self.monitor_timer = Some(ctx.set_timer(TimerKind::T7Heartbeat, self.heartbeat));
    }
}

impl Actor<PrimeMsg> for PrimeReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, PrimeMsg>) {
        self.start(ctx);
    }

    fn on_recover(&mut self, mode: RestartMode, ctx: &mut Context<'_, PrimeMsg>) {
        self.restart(mode, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: &PrimeMsg, ctx: &mut Context<'_, PrimeMsg>) {
        match msg {
            PrimeMsg::Request(signed) => {
                let view = self.core.gate.view();
                let answer = reply_to_client(None, PrimeMsg::Reply);
                if Intake::admit(ctx, &self.core.store, &self.core.exec, signed, view, answer) {
                    self.originate(signed.clone(), ctx);
                }
            }
            PrimeMsg::PoRequest {
                origin,
                origin_seq,
                request,
            } => {
                self.on_po_request(*origin, *origin_seq, request.clone(), ctx);
            }
            PrimeMsg::PoAck {
                origin,
                origin_seq,
                digest,
                from: r,
            } => {
                ctx.charge_crypto(CryptoOp::Verify);
                self.on_po_ack((*origin, *origin_seq), *r, *digest, ctx);
            }
            PrimeMsg::PrePrepare {
                view,
                seq,
                digest,
                batch,
            } => {
                let (view, seq, digest) = (*view, *seq, *digest);
                if !self.admit_proposal(ctx, (from, view, msg), (seq, digest), batch) {
                    return;
                }
                // mark proposals as ordered so the monitor credits the leader
                // (this learns requests not yet preordered locally, too)
                for r in batch.iter() {
                    self.ordered.insert(r.request.id, true);
                }
                if !self.core.log.install(seq, digest, batch.clone()) {
                    return;
                }
                let slot = self.core.log.slot(seq);
                if self.rounds.prepare(ctx, slot, (view, seq), digest, None) {
                    self.execute(ctx);
                }
            }
            PrimeMsg::Prepare {
                view,
                seq,
                digest,
                from: r,
            }
            | PrimeMsg::Commit {
                view,
                seq,
                digest,
                from: r,
            } => {
                let (view, seq, digest, r) = (*view, *seq, *digest, *r);
                if !self.core.gate.admit(from, view, msg) {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify);
                let vote = (matches!(msg, PrimeMsg::Commit { .. }), r);
                let slot = self.core.log.slot(seq);
                if self.rounds.count(ctx, slot, (view, seq), vote, digest) {
                    self.execute(ctx);
                }
            }
            PrimeMsg::View(vc) => self.on_view_msg(from, vc, ctx),
            PrimeMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, PrimeMsg>) {
        if kind == TimerKind::T7Heartbeat && Some(id) == self.monitor_timer {
            self.check_leader_performance(ctx);
            self.arm_periodic(ctx);
        } else {
            self.on_view_timer(id, ctx);
        }
    }
}

/// Prime client hooks: broadcast to all replicas (every replica preorders).
pub struct PrimeClientProto;

impl ClientProtocol for PrimeClientProto {
    type Msg = PrimeMsg;
    type Extra = ();
    const SUBMIT: SubmitPolicy = SubmitPolicy::Broadcast;

    fn wrap_request(req: SignedRequest) -> PrimeMsg {
        PrimeMsg::Request(req)
    }

    fn unwrap_reply(msg: &PrimeMsg) -> Option<&Reply> {
        match msg {
            PrimeMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
}

/// Run Prime under a scenario.
pub fn run(scenario: &Scenario, behaviors: &[(ReplicaId, PrimeBehavior)]) -> RunOutcome {
    let heartbeat = SimDuration(scenario.network.delta.0 / 2);
    // a correct leader orders an eligible request within ~2 network
    // traversals; triple that is the tolerance bound
    let order_bound = SimDuration(scenario.network.delta.0 * 2);
    launch::<PrimeClientProto, _>(scenario, scenario.n(3 * scenario.f + 1), |me, q, store| {
        let behavior = behaviors
            .iter()
            .find(|(r, _)| *r == me)
            .map_or(PrimeBehavior::Honest, |(_, b)| *b);
        let slots = (scenario.batch_size, scenario.checkpoint_interval);
        PrimeReplica::new(me, q, store, behavior, heartbeat, order_bound, slots)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbft::{self, Behavior, PbftOptions};
    use bft_sim::SafetyAuditor;

    fn accepted(out: &RunOutcome) -> usize {
        out.log.accepted()
    }

    fn throughput(out: &RunOutcome) -> f64 {
        accepted(out) as f64 / (out.end_time.0 as f64 / 1e9)
    }

    /// Regression: the leader is down and the leader of the next view is
    /// mute, so the new-view message of view 1 is never heard. Prime armed
    /// no timer while campaigning (and its τ7 monitor stands down during a
    /// view change), so it never left that view change; τ2 now escalates
    /// the stuck campaign to view 2.
    #[test]
    fn lost_new_view_is_retried() {
        use bft_sim::{AdversarySpec, Attack, FaultPlan, NodeId};
        let s = Scenario::small(2)
            .with_load(1, 10)
            .with_faults(FaultPlan::none().crash(NodeId::replica(0), SimTime::ZERO))
            .with_adversaries(vec![AdversarySpec::new(1, Attack::mute())]);
        let out = run(&s, &[]);
        let suspects = vec![NodeId::replica(0), NodeId::replica(1)];
        SafetyAuditor::excluding(suspects).assert_safe(&out.log);
        assert!(
            out.log.max_view() >= View(2),
            "got {:?}",
            out.log.max_view()
        );
        assert_eq!(accepted(&out), 10);
    }

    /// `preorder` is what the proposer and the τ7 monitor scan: it must hold
    /// the requests in flight, not the 1 200 entries (4 origins × 300
    /// requests) the run preorders.
    #[test]
    fn preorder_holds_only_requests_still_in_flight() {
        use crate::common::script::peak_size;
        let s = Scenario::small(1).with_load(2, 150);
        let delta = s.network.delta.0;
        let (out, peak) = peak_size::<PrimeClientProto, _>(
            &s,
            4,
            |me, q, store| {
                let (heartbeat, bound) = (SimDuration(delta / 2), SimDuration(delta * 2));
                PrimeReplica::new(
                    me,
                    q,
                    store,
                    PrimeBehavior::Honest,
                    heartbeat,
                    bound,
                    (1, 16),
                )
            },
            |r| r.preorder.len(),
        );
        assert_eq!(accepted(&out), 300);
        assert!(peak <= 100, "preorder grew to {peak} entries");
    }

    /// Regression: clients broadcast, so every replica preorders a request
    /// under its own origin key, and the leader proposed every eligible
    /// copy — four slots per request at n = 4, three of them executing
    /// nothing. A request is ordered once, whichever copy got there first.
    #[test]
    fn each_request_is_ordered_once() {
        let s = Scenario::small(1).with_load(2, 50);
        let out = run(&s, &[]);
        assert_eq!(accepted(&out), 100);
        for r in 0..4 {
            let node = NodeId::replica(r);
            let executed = out
                .log
                .count(|o| o.node == node && matches!(o.obs, Observation::Execute { .. }));
            assert_eq!(executed, 100, "replica {r}");
            assert_eq!(out.log.commits_of(node).len(), executed, "replica {r}");
        }
    }

    #[test]
    fn fault_free_progress_with_preordering() {
        let s = Scenario::small(1).with_load(1, 20);
        let out = run(&s, &[]);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 20);
        assert!(
            out.log.marker_count("eligible") >= 20,
            "preordering must run"
        );
    }

    #[test]
    fn preordering_costs_messages() {
        let s = Scenario::small(1).with_load(1, 20);
        let prime = run(&s, &[]);
        let pbft = pbft::run(&s, &PbftOptions::default());
        assert!(
            prime.metrics.replica_msgs_sent() > pbft.metrics.replica_msgs_sent(),
            "robustness is not free: {} vs {}",
            prime.metrics.replica_msgs_sent(),
            pbft.metrics.replica_msgs_sent()
        );
    }

    #[test]
    fn delay_attack_is_detected_and_leader_replaced() {
        // the adversarial leader delays each proposal by 25 ms — below
        // PBFT's 40 ms view-change timeout, far above Prime's order bound
        let delay = SimDuration::from_millis(25);
        let s = Scenario::small(1).with_load(1, 20);
        let out = run(&s, &[(ReplicaId(0), PrimeBehavior::DelayLeader(delay))]);
        SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
        assert!(
            out.log.marker_count("leader-underperforming") > 0,
            "τ7 must catch it"
        );
        assert!(
            out.log.max_view() >= View(1),
            "the slow leader must be replaced"
        );
        assert_eq!(accepted(&out), 20);
    }

    #[test]
    fn bounded_degradation_vs_pbft_under_attack() {
        // DC12's claim: under the just-below-timeout delay attack, Prime's
        // throughput stays near fault-free levels (it swaps the leader);
        // PBFT's collapses to ~1/delay
        let delay = SimDuration::from_millis(25);
        let s = Scenario::small(1).with_load(1, 20);
        let prime_attacked = run(&s, &[(ReplicaId(0), PrimeBehavior::DelayLeader(delay))]);
        let pbft_attacked = pbft::run(
            &s,
            &PbftOptions {
                behaviors: vec![(ReplicaId(0), Behavior::DelayLeader(delay))],
                ..Default::default()
            },
        );
        assert_eq!(accepted(&prime_attacked), 20);
        assert_eq!(accepted(&pbft_attacked), 20);
        let tp_prime = throughput(&prime_attacked);
        let tp_pbft = throughput(&pbft_attacked);
        assert!(
            tp_prime > 3.0 * tp_pbft,
            "Prime under attack {tp_prime:.1} req/s must far exceed PBFT {tp_pbft:.1} req/s"
        );
    }

    /// Regression (PBFT's shape, see `pbft::tests`): r1's prepare for X
    /// reached r2 before leader r0's pre-prepare for Y and counted toward
    /// Y, so {r1: X, r2: Y} made r2 prepared and it sent Commit(Y).
    #[test]
    fn an_early_prepare_for_another_digest_does_not_prepare_the_slot() {
        use crate::common::script::{play, rival_batches, Script};
        let store = Scenario::small(1).key_store();
        let [(x, _), (y, batch)] = rival_batches(&store);
        let (view, seq) = (View(0), SeqNum(1));
        let early = PrimeMsg::Prepare {
            view,
            seq,
            digest: x,
            from: ReplicaId(1),
        };
        let proposal = PrimeMsg::PrePrepare {
            view,
            seq,
            digest: y,
            batch,
        };
        let scripts = vec![
            (1, Script::new(2, vec![early], vec![])),
            (0, Script::new(2, vec![], vec![proposal])),
        ];
        let (q, delta) = (QuorumRules { n: 4, f: 1 }, SimDuration::from_millis(10));
        let honest = PrimeBehavior::Honest;
        let replica = PrimeReplica::new(ReplicaId(2), q, store, honest, delta, delta, (1, 16));
        let (_, sent) = play(scripts, replica);
        let prepared_y =
            |m: &PrimeMsg| matches!(m, PrimeMsg::Prepare { digest, .. } if *digest == y);
        assert!(sent.iter().any(prepared_y), "r2 accepted the proposal");
        let commit = sent.iter().find(|m| matches!(m, PrimeMsg::Commit { .. }));
        assert_eq!(commit, None, "{{r1: X, r2: Y}} is no prepare quorum for Y");
    }

    /// A preordered copy becomes eligible on a quorum of acks for its own
    /// digest: r1 acks r0's request itself, and the acks r2 and r3 send
    /// count only if they name the same digest.
    #[test]
    fn acks_for_another_digest_do_not_make_a_request_eligible() {
        use crate::common::script::{first_write, play, rival_batches, Script};
        let store = Scenario::small(1).key_store();
        let (request, _) = first_write(&store);
        let (other, _) = rival_batches(&store)[0].clone();
        let eligible = |digest: Digest| {
            let po = PrimeMsg::PoRequest {
                origin: ReplicaId(0),
                origin_seq: 1,
                request: request.clone(),
            };
            let ack = |from| PrimeMsg::PoAck {
                origin: ReplicaId(0),
                origin_seq: 1,
                digest,
                from: ReplicaId(from),
            };
            let scripts = vec![
                (0, Script::new(1, vec![po], vec![])),
                (2, Script::new(1, vec![], vec![ack(2)])),
                (3, Script::new(1, vec![], vec![ack(3)])),
            ];
            let (q, delta) = (QuorumRules { n: 4, f: 1 }, SimDuration::from_millis(10));
            let honest = PrimeBehavior::Honest;
            let replica = PrimeReplica::new(
                ReplicaId(1),
                q,
                store.clone(),
                honest,
                delta,
                delta,
                (1, 16),
            );
            play(scripts, replica).0.log.marker_count("eligible")
        };
        assert_eq!(eligible(request.digest()), 1, "three acks for the request");
        assert_eq!(
            eligible(other),
            0,
            "one ack for the request, two for another digest"
        );
    }

    #[test]
    fn deterministic() {
        let s = Scenario::small(1).with_load(1, 10);
        let a = run(&s, &[]);
        let b = run(&s, &[]);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
    }
}
