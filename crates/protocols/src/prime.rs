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
//!   knows when it became eligible.
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
use bft_sim::{Actor, Context, NodeId, Observation, SimDuration, SimTime, Stage, TimerId};
use bft_types::{
    Digest, QuorumRules, ReplicaId, Reply, RequestId, SeqNum, TimerKind, View, WireSize,
};

use crate::common::{
    launch, reply_to_client, BatchEntry, ClientProtocol, Core, Execution, Intake, Scenario,
    SignedRequest, SubmitPolicy, ViewChanger, ViewMsg,
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

#[derive(Debug, Clone, Default)]
pub(crate) struct PrimeSlot {
    prepares: Vec<ReplicaId>,
    commits: Vec<ReplicaId>,
    prepared: bool,
    sent_commit: bool,
}

/// Tracking of one preordered request.
#[derive(Debug, Clone)]
struct PreorderEntry {
    request: SignedRequest,
    acks: Vec<ReplicaId>,
    eligible_at: Option<SimTime>,
    ordered: bool,
}

/// A Prime replica.
pub struct PrimeReplica {
    core: Core<PrimeMsg, PrimeSlot, Vec<SignedRequest>>,
    store: Arc<KeyStore>,
    behavior: PrimeBehavior,
    /// Preorder state keyed by (origin, origin_seq), until the request has
    /// executed.
    preorder: BTreeMap<(ReplicaId, u64), PreorderEntry>,
    /// Requests this replica originated (origin_seq counter).
    my_origin_seq: u64,
    /// Request id → preorder key (dedup).
    by_request: BTreeMap<RequestId, (ReplicaId, u64)>,
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
        batch_size: usize,
    ) -> Self {
        PrimeReplica {
            // τ2 runs only while campaigning (in normal operation the τ7
            // monitor holds the leader accountable), for twice the ordering
            // bound: 4Δ, the family's view-change timeout
            core: Core::new(
                me,
                q,
                SimDuration(order_bound.0 * 2),
                Execution::new().skipping_executed(),
            ),
            store,
            behavior,
            preorder: BTreeMap::new(),
            my_origin_seq: 0,
            by_request: BTreeMap::new(),
            monitor_timer: None,
            heartbeat,
            order_bound,
            batch_size,
        }
    }

    // ---- preordering -------------------------------------------------------

    fn originate(&mut self, signed: SignedRequest, ctx: &mut Context<'_, PrimeMsg>) {
        if self.by_request.contains_key(&signed.request.id)
            || self.core.exec.is_executed(&signed.request.id)
        {
            return;
        }
        self.my_origin_seq += 1;
        let key = (self.core.me, self.my_origin_seq);
        self.by_request.insert(signed.request.id, key);
        self.preorder.insert(
            key,
            PreorderEntry {
                request: signed.clone(),
                acks: vec![self.core.me],
                eligible_at: None,
                ordered: false,
            },
        );
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
        if !request.verify(&self.store) {
            return;
        }
        let key = (origin, origin_seq);
        let digest = request.digest();
        self.by_request.entry(request.request.id).or_insert(key);
        let entry = self.preorder.entry(key).or_insert(PreorderEntry {
            request,
            acks: Vec::new(),
            eligible_at: None,
            ordered: false,
        });
        if !entry.acks.contains(&self.core.me) {
            entry.acks.push(self.core.me);
        }
        // acknowledge all-to-all
        ctx.charge_crypto(CryptoOp::Sign);
        let me = self.core.me;
        ctx.broadcast_replicas(PrimeMsg::PoAck {
            origin,
            origin_seq,
            digest,
            from: me,
        });
        self.on_po_ack(origin, origin_seq, me, ctx);
    }

    fn on_po_ack(
        &mut self,
        origin: ReplicaId,
        origin_seq: u64,
        from: ReplicaId,
        ctx: &mut Context<'_, PrimeMsg>,
    ) {
        let quorum = self.core.q.quorum();
        let now = ctx.now();
        let key = (origin, origin_seq);
        let Some(entry) = self.preorder.get_mut(&key) else {
            return;
        };
        if !entry.acks.contains(&from) {
            entry.acks.push(from);
        }
        if entry.eligible_at.is_none() && entry.acks.len() >= quorum {
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
            // eligible, unordered, in eligibility order
            let mut todo: Vec<((ReplicaId, u64), SimTime)> = self
                .preorder
                .iter()
                .filter(|(_, e)| {
                    e.eligible_at.is_some()
                        && !e.ordered
                        && !self.core.exec.is_executed(&e.request.request.id)
                })
                .map(|(k, e)| (*k, e.eligible_at.unwrap()))
                .collect();
            if todo.is_empty() {
                break;
            }
            todo.sort_by_key(|(k, t)| (*t, *k));
            let take: Vec<(ReplicaId, u64)> =
                todo.iter().take(self.batch_size).map(|(k, _)| *k).collect();
            let batch: Vec<SignedRequest> = take
                .iter()
                .map(|k| self.preorder.get(k).expect("exists").request.clone())
                .collect();
            for k in &take {
                self.preorder.get_mut(k).expect("exists").ordered = true;
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

    fn record_prepare(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, PrimeMsg>,
    ) {
        let quorum = 2 * self.core.q.f;
        let view = self.core.gate.view();
        let me = self.core.me;
        let slot = self.core.log.slot(seq);
        if slot.digest.is_some() && slot.digest != Some(digest) {
            return;
        }
        if !slot.ext.prepares.contains(&from) {
            slot.ext.prepares.push(from);
        }
        if slot.digest == Some(digest) && !slot.ext.prepared && slot.ext.prepares.len() >= quorum {
            slot.ext.prepared = true;
            if !slot.ext.sent_commit {
                slot.ext.sent_commit = true;
                ctx.charge_crypto(CryptoOp::Sign);
                ctx.broadcast_replicas(PrimeMsg::Commit {
                    view,
                    seq,
                    digest,
                    from: me,
                });
                self.record_commit(me, seq, digest, ctx);
            }
        }
    }

    fn record_commit(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, PrimeMsg>,
    ) {
        let quorum = self.core.q.quorum();
        let view = self.core.gate.view();
        let slot = self.core.log.slot(seq);
        if slot.digest.is_some() && slot.digest != Some(digest) {
            return;
        }
        if !slot.ext.commits.contains(&from) {
            slot.ext.commits.push(from);
        }
        if slot.ext.prepared && !slot.committed && slot.ext.commits.len() >= quorum {
            slot.committed = true;
            ctx.observe(Observation::Commit {
                seq,
                view,
                digest,
                speculative: false,
            });
            self.try_execute(ctx);
        }
    }

    fn try_execute(&mut self, ctx: &mut Context<'_, PrimeMsg>) {
        let (by_request, preorder) = (&self.by_request, &mut self.preorder);
        let mut send = reply_to_client(Some(CryptoOp::Sign), PrimeMsg::Reply);
        let deliver = |ctx: &mut Context<'_, PrimeMsg>, reply: Reply, seq| {
            // executed means ordered, whatever the monitor last saw
            if let Some(e) = by_request
                .get(&reply.request)
                .and_then(|key| preorder.get_mut(key))
            {
                e.ordered = true;
            }
            send(ctx, reply, seq);
        };
        let view = self.core.gate.view();
        self.core
            .exec
            .drain(ctx, &mut self.core.log, view, deliver, |_, _, _, _| {});
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
            .filter(|e| !e.ordered && !self.core.exec.is_executed(&e.request.request.id))
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
    type Ext = PrimeSlot;
    type Payload = Vec<SignedRequest>;

    fn core(&mut self) -> &mut Core<PrimeMsg, PrimeSlot, Vec<SignedRequest>> {
        &mut self.core
    }

    fn wire(msg: ViewMsg<Vec<SignedRequest>>) -> PrimeMsg {
        PrimeMsg::View(msg)
    }

    /// The slots this replica holds a prepare quorum for.
    fn report(&mut self, _: &mut Context<'_, PrimeMsg>) -> Vec<BatchEntry> {
        self.core.open_entries(|s| s.ext.prepared)
    }

    fn adopt(&mut self, (seq, digest, batch): BatchEntry, ctx: &mut Context<'_, PrimeMsg>) {
        self.core.log.reinstall(seq, digest, batch);
        if !self.core.is_leader() {
            ctx.charge_crypto(CryptoOp::Sign);
            let (view, from) = (self.core.gate.view(), self.core.me);
            ctx.broadcast_replicas(PrimeMsg::Prepare {
                view,
                seq,
                digest,
                from,
            });
            self.record_prepare(from, seq, digest, ctx);
        }
    }

    /// Dead slots release their requests back to the eligible pool.
    fn requeue(&mut self, stranded: Vec<SignedRequest>) {
        for id in stranded.iter().map(|r| r.request.id) {
            let key = self.by_request.get(&id);
            if let Some(e) = key.and_then(|key| self.preorder.get_mut(key)) {
                e.ordered &= self.core.exec.is_executed(&id);
            }
        }
    }

    fn resume(&mut self, ctx: &mut Context<'_, PrimeMsg>) {
        self.propose_eligible(ctx);
    }
}

impl Actor<PrimeMsg> for PrimeReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, PrimeMsg>) {
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
        self.monitor_timer = Some(ctx.set_timer(TimerKind::T7Heartbeat, self.heartbeat));
    }

    fn on_message(&mut self, from: NodeId, msg: &PrimeMsg, ctx: &mut Context<'_, PrimeMsg>) {
        match msg {
            PrimeMsg::Request(signed) => {
                let view = self.core.gate.view();
                let answer = reply_to_client(None, PrimeMsg::Reply);
                if Intake::admit(ctx, &self.store, &self.core.exec, signed, view, answer) {
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
                from: r,
                ..
            } => {
                ctx.charge_crypto(CryptoOp::Verify);
                self.on_po_ack(*origin, *origin_seq, *r, ctx);
            }
            PrimeMsg::PrePrepare {
                view,
                seq,
                digest,
                batch,
            } => {
                let (view, seq, digest) = (*view, *seq, *digest);
                if !self.core.gate.admit(from, view, msg) {
                    return;
                }
                if from != NodeId::Replica(self.core.leader()) {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify);
                ctx.charge_crypto(CryptoOp::Hash);
                if digest_of(batch) != digest {
                    return;
                }
                // mark proposals as ordered so the monitor credits the leader
                for r in batch.iter() {
                    if let Some(key) = self.by_request.get(&r.request.id).copied() {
                        if let Some(e) = self.preorder.get_mut(&key) {
                            e.ordered = true;
                        }
                    } else {
                        // the leader may order requests we have not yet
                        // preordered locally; learn them
                        self.by_request
                            .insert(r.request.id, (ReplicaId(u32::MAX), 0));
                    }
                }
                if !self.core.log.install(seq, digest, batch.clone()) {
                    return;
                }
                let me = self.core.me;
                ctx.charge_crypto(CryptoOp::Sign);
                ctx.broadcast_replicas(PrimeMsg::Prepare {
                    view,
                    seq,
                    digest,
                    from: me,
                });
                self.record_prepare(me, seq, digest, ctx);
            }
            PrimeMsg::Prepare {
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
                self.record_prepare(r, seq, digest, ctx);
            }
            PrimeMsg::Commit {
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
                self.record_commit(r, seq, digest, ctx);
            }
            PrimeMsg::View(vc) => self.on_view_msg(from, vc, ctx),
            PrimeMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, PrimeMsg>) {
        if kind == TimerKind::T7Heartbeat && Some(id) == self.monitor_timer {
            self.check_leader_performance(ctx);
            self.monitor_timer = Some(ctx.set_timer(TimerKind::T7Heartbeat, self.heartbeat));
        } else {
            self.on_view_timer(id, ctx);
        }
    }
}

/// Prime client hooks: broadcast to all replicas (every replica preorders).
pub struct PrimeClientProto;

impl ClientProtocol for PrimeClientProto {
    type Msg = PrimeMsg;
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
        let batch = scenario.batch_size;
        PrimeReplica::new(me, q, store, behavior, heartbeat, order_bound, batch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbft::{self, Behavior, PbftOptions};
    use bft_sim::SafetyAuditor;

    fn accepted(out: &RunOutcome) -> usize {
        out.log.client_latencies().len()
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
                PrimeReplica::new(me, q, store, PrimeBehavior::Honest, heartbeat, bound, 1)
            },
            |r| r.preorder.len(),
        );
        assert_eq!(accepted(&out), 300);
        assert!(peak <= 100, "preorder grew to {peak} entries");
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

    #[test]
    fn deterministic() {
        let s = Scenario::small(1).with_load(1, 10);
        let a = run(&s, &[]);
        let b = run(&s, &[]);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
    }
}
