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
    launch, reply_to_client, ClientProtocol, Execution, Intake, Scenario, SignedRequest,
    SubmitPolicy, ViewGate,
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
    /// View change (performance-triggered or timeout-triggered).
    ViewChange {
        /// Target view.
        new_view: View,
        /// Prepared entries for re-proposal.
        prepared: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
        /// Sender.
        from: ReplicaId,
    },
    /// New leader installs the view.
    NewView {
        /// Installed view.
        view: View,
        /// Re-proposals.
        pre_prepares: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
    },
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
            PrimeMsg::ViewChange { prepared, .. } => {
                1 + 8
                    + prepared
                        .iter()
                        .map(|(_, _, b)| 40 + b.wire_size())
                        .sum::<usize>()
                    + 64
            }
            PrimeMsg::NewView { pre_prepares, .. } => {
                1 + 8
                    + pre_prepares
                        .iter()
                        .map(|(_, _, b)| 40 + b.wire_size())
                        .sum::<usize>()
                    + 64
            }
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
struct PrimeSlot {
    digest: Option<Digest>,
    batch: Vec<SignedRequest>,
    prepares: Vec<ReplicaId>,
    commits: Vec<ReplicaId>,
    prepared: bool,
    committed: bool,
    executed: bool,
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
    me: ReplicaId,
    q: QuorumRules,
    store: Arc<KeyStore>,
    behavior: PrimeBehavior,
    gate: ViewGate<PrimeMsg>,
    next_seq: SeqNum,
    slots: BTreeMap<SeqNum, PrimeSlot>,
    /// Preorder state keyed by (origin, origin_seq).
    preorder: BTreeMap<(ReplicaId, u64), PreorderEntry>,
    /// Requests this replica originated (origin_seq counter).
    my_origin_seq: u64,
    /// Request id → preorder key (dedup).
    by_request: BTreeMap<RequestId, (ReplicaId, u64)>,
    exec: Execution,
    vc_votes: crate::common::VcVotes,
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
            me,
            q,
            store,
            behavior,
            gate: ViewGate::new(),
            next_seq: SeqNum(1),
            slots: BTreeMap::new(),
            preorder: BTreeMap::new(),
            my_origin_seq: 0,
            by_request: BTreeMap::new(),
            exec: Execution::new().skipping_executed(),
            vc_votes: BTreeMap::new(),
            monitor_timer: None,
            heartbeat,
            order_bound,
            batch_size,
        }
    }

    fn leader(&self) -> ReplicaId {
        self.gate.view().leader_of(self.q.n)
    }

    fn is_leader(&self) -> bool {
        self.leader() == self.me
    }

    // ---- preordering -------------------------------------------------------

    fn originate(&mut self, signed: SignedRequest, ctx: &mut Context<'_, PrimeMsg>) {
        if self.by_request.contains_key(&signed.request.id)
            || self.exec.is_executed(&signed.request.id)
        {
            return;
        }
        self.my_origin_seq += 1;
        let key = (self.me, self.my_origin_seq);
        self.by_request.insert(signed.request.id, key);
        self.preorder.insert(
            key,
            PreorderEntry {
                request: signed.clone(),
                acks: vec![self.me],
                eligible_at: None,
                ordered: false,
            },
        );
        ctx.charge_crypto(CryptoOp::Sign);
        let me = self.me;
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
        if !entry.acks.contains(&self.me) {
            entry.acks.push(self.me);
        }
        // acknowledge all-to-all
        ctx.charge_crypto(CryptoOp::Sign);
        let me = self.me;
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
        let quorum = self.q.quorum();
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
            if self.is_leader() {
                self.propose_eligible(ctx);
            }
        }
    }

    // ---- ordering core (PBFT shape) ---------------------------------------

    fn propose_eligible(&mut self, ctx: &mut Context<'_, PrimeMsg>) {
        if !self.is_leader() || self.gate.in_view_change() {
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
                        && !self.exec.is_executed(&e.request.request.id)
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
            let seq = self.next_seq;
            self.next_seq = self.next_seq.next();
            let digest = digest_of(&batch);
            ctx.charge_crypto(CryptoOp::Hash);
            ctx.charge_crypto(CryptoOp::Sign);
            if let PrimeBehavior::DelayLeader(d) = self.behavior {
                ctx.charge(d); // the delay attack
            }
            let view = self.gate.view();
            {
                let slot = self.slots.entry(seq).or_default();
                slot.digest = Some(digest);
                slot.batch = batch.clone();
            }
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
        let quorum = 2 * self.q.f;
        let view = self.gate.view();
        let me = self.me;
        let slot = self.slots.entry(seq).or_default();
        if slot.digest.is_some() && slot.digest != Some(digest) {
            return;
        }
        if !slot.prepares.contains(&from) {
            slot.prepares.push(from);
        }
        if slot.digest == Some(digest) && !slot.prepared && slot.prepares.len() >= quorum {
            slot.prepared = true;
            if !slot.sent_commit {
                slot.sent_commit = true;
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
        let quorum = self.q.quorum();
        let view = self.gate.view();
        let slot = self.slots.entry(seq).or_default();
        if slot.digest.is_some() && slot.digest != Some(digest) {
            return;
        }
        if !slot.commits.contains(&from) {
            slot.commits.push(from);
        }
        if slot.prepared && !slot.committed && slot.commits.len() >= quorum {
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
        while let Some(slot) = self.slots.get_mut(&self.exec.cursor().next()) {
            if !slot.committed || slot.executed {
                break;
            }
            let (by_request, preorder) = (&self.by_request, &mut self.preorder);
            let mut send = reply_to_client(Some(CryptoOp::Sign), PrimeMsg::Reply);
            let view = self.gate.view();
            self.exec
                .run(ctx, Some(&slot.batch), view, |ctx, reply, seq| {
                    // executed means ordered, whatever the monitor last saw
                    if let Some(e) = by_request
                        .get(&reply.request)
                        .and_then(|key| preorder.get_mut(key))
                    {
                        e.ordered = true;
                    }
                    send(ctx, reply, seq);
                });
            slot.executed = true;
        }
    }

    // ---- the performance monitor (τ7) --------------------------------------

    fn check_leader_performance(&mut self, ctx: &mut Context<'_, PrimeMsg>) {
        if self.gate.in_view_change() {
            return;
        }
        let now = ctx.now();
        // the oldest eligible request not yet ordered by the leader
        let oldest: Option<SimTime> = self
            .preorder
            .values()
            .filter(|e| !e.ordered && !self.exec.is_executed(&e.request.request.id))
            .filter_map(|e| e.eligible_at)
            .min();
        if let Some(t) = oldest {
            if now.since(t) > self.order_bound {
                // the leader is provably underperforming: a correct leader
                // orders an eligible request within the bound
                ctx.observe(Observation::Marker {
                    label: "leader-underperforming",
                });
                let target = self.gate.view().next();
                self.start_view_change(target, ctx);
            }
        }
    }

    // ---- view change --------------------------------------------------------

    fn start_view_change(&mut self, target: View, ctx: &mut Context<'_, PrimeMsg>) {
        if target <= self.gate.view() {
            return;
        }
        if self.gate.in_view_change() && self.vc_votes.keys().max().is_some_and(|v| *v >= target) {
            return;
        }
        self.gate.set_in_view_change(true);
        ctx.observe(Observation::StageEnter {
            stage: Stage::ViewChange,
        });
        let prepared: Vec<(SeqNum, Digest, Vec<SignedRequest>)> = self
            .slots
            .iter()
            .filter(|(seq, s)| s.prepared && !s.executed && **seq > self.exec.cursor())
            .map(|(seq, s)| (*seq, s.digest.unwrap_or(Digest::ZERO), s.batch.clone()))
            .collect();
        ctx.charge_crypto(CryptoOp::Sign);
        let me = self.me;
        ctx.broadcast_replicas(PrimeMsg::ViewChange {
            new_view: target,
            prepared: prepared.clone(),
            from: me,
        });
        self.record_vc(me, target, prepared, ctx);
    }

    fn record_vc(
        &mut self,
        from: ReplicaId,
        target: View,
        prepared: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
        ctx: &mut Context<'_, PrimeMsg>,
    ) {
        let votes = self.vc_votes.entry(target).or_default();
        if votes.iter().any(|(r, _)| *r == from) {
            return;
        }
        votes.push((from, prepared));
        let have = votes.len();
        if target > self.gate.view() && !self.gate.in_view_change() && have > self.q.f {
            self.start_view_change(target, ctx);
            return;
        }
        if target.leader_of(self.q.n) == self.me
            && self.gate.in_view_change()
            && have >= self.q.quorum()
        {
            let votes = self.vc_votes.get(&target).cloned().unwrap_or_default();
            let mut re_proposals: BTreeMap<SeqNum, (Digest, Vec<SignedRequest>)> = BTreeMap::new();
            for (_, prepared) in &votes {
                for (seq, digest, batch) in prepared {
                    re_proposals.entry(*seq).or_insert((*digest, batch.clone()));
                }
            }
            let pre_prepares: Vec<(SeqNum, Digest, Vec<SignedRequest>)> = re_proposals
                .into_iter()
                .map(|(s, (d, b))| (s, d, b))
                .collect();
            ctx.charge_crypto(CryptoOp::Sign);
            ctx.broadcast_replicas(PrimeMsg::NewView {
                view: target,
                pre_prepares: pre_prepares.clone(),
            });
            self.install_view(target, pre_prepares, ctx);
        }
    }

    fn install_view(
        &mut self,
        view: View,
        pre_prepares: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
        ctx: &mut Context<'_, PrimeMsg>,
    ) {
        self.gate.install(view);
        self.vc_votes.retain(|v, _| *v > view);
        ctx.observe(Observation::NewView { view });
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
        let exec_cursor = self.exec.cursor();
        let re_proposed: Vec<SeqNum> = pre_prepares.iter().map(|(s, _, _)| *s).collect();
        // dead slots: release their requests back to the eligible pool
        let mut released: Vec<RequestId> = Vec::new();
        self.slots.retain(|seq, slot| {
            if *seq > exec_cursor && !slot.executed && !re_proposed.contains(seq) {
                released.extend(slot.batch.iter().map(|r| r.request.id));
                false
            } else {
                true
            }
        });
        for id in released {
            if let Some(key) = self.by_request.get(&id) {
                if let Some(e) = self.preorder.get_mut(key) {
                    if !self.exec.is_executed(&id) {
                        e.ordered = false;
                    }
                }
            }
        }
        let max_seq = pre_prepares
            .iter()
            .map(|(s, _, _)| *s)
            .max()
            .unwrap_or(exec_cursor);
        let leader = self.leader();
        let me = self.me;
        for (seq, digest, batch) in pre_prepares {
            if seq <= exec_cursor {
                continue;
            }
            {
                let slot = self.slots.entry(seq).or_default();
                if slot.executed {
                    continue;
                }
                slot.digest = Some(digest);
                slot.batch = batch;
                slot.prepared = false;
                slot.committed = false;
                slot.sent_commit = false;
                slot.prepares.clear();
                slot.commits.clear();
            }
            if me != leader {
                ctx.charge_crypto(CryptoOp::Sign);
                let view = self.gate.view();
                ctx.broadcast_replicas(PrimeMsg::Prepare {
                    view,
                    seq,
                    digest,
                    from: me,
                });
                self.record_prepare(me, seq, digest, ctx);
            }
        }
        if self.is_leader() {
            self.next_seq = self
                .next_seq
                .max(max_seq.next())
                .max(self.exec.cursor().next());
            self.propose_eligible(ctx);
        }
        for (from, msg) in self.gate.replay_after_install() {
            self.on_message(from, &msg, ctx);
        }
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
                let view = self.gate.view();
                let answer = reply_to_client(None, PrimeMsg::Reply);
                if Intake::admit(ctx, &self.store, &self.exec, signed, view, answer) {
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
                if !self.gate.admit(from, view, msg) {
                    return;
                }
                if from != NodeId::Replica(self.leader()) {
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
                {
                    let slot = self.slots.entry(seq).or_default();
                    if slot.digest.is_some() && slot.digest != Some(digest) {
                        return;
                    }
                    slot.digest = Some(digest);
                    slot.batch = batch.clone();
                }
                let me = self.me;
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
                if !self.gate.admit(from, view, msg) {
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
                if !self.gate.admit(from, view, msg) {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify);
                self.record_commit(r, seq, digest, ctx);
            }
            PrimeMsg::ViewChange {
                new_view,
                prepared,
                from: r,
            } => {
                ctx.charge_crypto(CryptoOp::Verify);
                self.record_vc(*r, *new_view, prepared.clone(), ctx);
            }
            PrimeMsg::NewView { view, pre_prepares } => {
                if *view >= self.gate.view() && from == NodeId::Replica(view.leader_of(self.q.n)) {
                    ctx.charge_crypto(CryptoOp::Verify);
                    self.install_view(*view, pre_prepares.clone(), ctx);
                }
            }
            PrimeMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, PrimeMsg>) {
        if kind == TimerKind::T7Heartbeat && Some(id) == self.monitor_timer {
            self.check_leader_performance(ctx);
            self.monitor_timer = Some(ctx.set_timer(TimerKind::T7Heartbeat, self.heartbeat));
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
