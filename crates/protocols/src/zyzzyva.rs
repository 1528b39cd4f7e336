//! Zyzzyva — speculative Byzantine fault tolerance (Kotla et al. '07).
//!
//! Design choice 8 (*speculative execution*) applied to PBFT: the prepare
//! and commit phases are gone. The leader assigns an order and replicas
//! **execute immediately**, replying speculatively. Correctness moves to the
//! client (dimension P6: the *repairer* role):
//!
//! * **Fast path** — all `n` replicas reply with matching results: the
//!   request is complete in 3 one-way hops (client → leader → replicas →
//!   client). Requires every replica to be correct and timely (assumptions
//!   a1 + a2).
//! * **Commit-certificate path** — after timer τ1 with only `2f+1`
//!   matching replies, the client assembles a *commit certificate* and
//!   sends it to the replicas; on receipt they mark the history committed
//!   and acknowledge; `2f+1` acks complete the request.
//! * **View change** — fewer than `2f+1` matching replies means the leader
//!   equivocated or stalled; the client broadcasts the request to all
//!   replicas (confirm-request), replicas forward to the leader and start
//!   τ2, and a PBFT-style view change replaces the leader. Speculative
//!   executions above the last commit certificate roll back.
//!
//! **Zyzzyva5** (design choice 10, *resilience*) runs the same code with
//! `n = 5f+1` and a fast quorum of `4f+1`: the fast path then survives `f`
//! actual faults instead of zero.

use std::collections::BTreeMap;
use std::sync::Arc;

use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, Observation, SimDuration, Stage, TimerId};
use bft_types::{
    Digest, QuorumRules, ReplicaId, Reply, RequestId, SeqNum, TimerKind, TxnResult, View, WireSize,
};

use crate::client::{launch, ClientProtocol, Pending, SubmitPolicy};
use crate::common::{Execution, Intake, Scenario, SignedRequest, ViewGate};
use bft_core::client::CollectStatus;

/// Zyzzyva protocol messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum ZyzzyvaMsg {
    /// Client → leader: a signed request.
    Request(SignedRequest),
    /// Client → all replicas: the request again, after a failed fast path
    /// (confirm-request: forces the leader's hand and arms τ2 at backups).
    ConfirmRequest(SignedRequest),
    /// Leader → replicas: speculative order assignment.
    OrderReq {
        /// View.
        view: View,
        /// Sequence number.
        seq: SeqNum,
        /// Request digest.
        digest: Digest,
        /// The ordered request.
        request: SignedRequest,
    },
    /// Replica → client: speculative execution result plus its history
    /// position (needed to aim the commit certificate).
    SpecReply {
        /// The reply.
        reply: Reply,
        /// Position in the speculative history.
        seq: SeqNum,
    },
    /// Client → replicas: commit certificate (2f+1 matching speculative
    /// replies for everything up to `seq`).
    CommitCert {
        /// Request this certifies.
        request: RequestId,
        /// View.
        view: View,
        /// History position.
        seq: SeqNum,
        /// Matching state digest.
        state_digest: Digest,
        /// The 2f+1 replicas whose replies matched.
        replicas: Vec<ReplicaId>,
    },
    /// Replica → client: local-commit acknowledgment of a certificate.
    LocalCommit {
        /// The certified request.
        request: RequestId,
        /// View.
        view: View,
        /// Acknowledging replica.
        from: ReplicaId,
        /// Its state digest at the certified position.
        state_digest: Digest,
    },
    /// Replica → all: abandon the current view.
    ViewChange {
        /// Proposed view.
        new_view: View,
        /// The replica's highest commit certificate position.
        max_cc: SeqNum,
        /// Sender.
        from: ReplicaId,
    },
    /// New leader → all: install the view; history is truncated to the
    /// highest commit certificate among 2f+1 view-change messages.
    NewView {
        /// Installed view.
        view: View,
        /// History position everyone restarts from.
        from_seq: SeqNum,
    },
}

impl WireSize for ZyzzyvaMsg {
    fn wire_size(&self) -> usize {
        match self {
            ZyzzyvaMsg::Request(r) | ZyzzyvaMsg::ConfirmRequest(r) => 1 + r.wire_size(),
            ZyzzyvaMsg::OrderReq { request, .. } => 1 + 8 + 8 + 32 + request.wire_size() + 32,
            ZyzzyvaMsg::SpecReply { reply, .. } => 1 + reply.wire_size() + 8,
            ZyzzyvaMsg::CommitCert { replicas, .. } => 1 + 16 + 8 + 8 + 32 + replicas.len() * 36,
            ZyzzyvaMsg::LocalCommit { .. } => 1 + 16 + 8 + 4 + 32 + 32,
            ZyzzyvaMsg::ViewChange { .. } => 1 + 8 + 8 + 4 + 64,
            ZyzzyvaMsg::NewView { .. } => 1 + 8 + 8 + 64,
        }
    }
}

/// A Zyzzyva replica.
pub struct ZyzzyvaReplica {
    me: ReplicaId,
    q: QuorumRules,
    store: Arc<KeyStore>,
    /// Gates order assignments that raced ahead of the new-view message.
    gate: ViewGate<ZyzzyvaMsg>,
    next_seq: SeqNum,
    /// Ordered-but-not-yet-executed assignments (gap buffer).
    pending: BTreeMap<SeqNum, SignedRequest>,
    /// All requests this replica has seen, for re-proposal after view
    /// change.
    known: BTreeMap<RequestId, SignedRequest>,
    /// Speculative; requests are ordered one by one, so the state machine's
    /// sequence number is the slot and the stage's slot cursor goes unused.
    exec: Execution,
    /// Highest history position covered by a commit certificate.
    max_cc: SeqNum,
    /// τ2 over outstanding confirm-requests.
    intake: Intake,
    vc_votes: BTreeMap<View, Vec<(ReplicaId, SeqNum)>>,
}

impl ZyzzyvaReplica {
    /// Create a replica.
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        view_timeout: SimDuration,
    ) -> Self {
        ZyzzyvaReplica {
            me,
            q,
            store,
            gate: ViewGate::new(),
            next_seq: SeqNum(1),
            pending: BTreeMap::new(),
            known: BTreeMap::new(),
            exec: Execution::new().speculative(),
            max_cc: SeqNum(0),
            intake: Intake::new(view_timeout),
            vc_votes: BTreeMap::new(),
        }
    }

    fn leader(&self) -> ReplicaId {
        self.gate.view().leader_of(self.q.n)
    }

    fn is_leader(&self) -> bool {
        self.leader() == self.me
    }

    fn order(&mut self, signed: SignedRequest, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        if !self.is_leader() || self.gate.in_view_change() {
            return;
        }
        if self.exec.is_executed(&signed.request.id) {
            return;
        }
        // already ordered and in flight?
        if self
            .pending
            .values()
            .any(|r| r.request.id == signed.request.id)
        {
            return;
        }
        let seq = self.next_seq;
        self.next_seq = self.next_seq.next();
        let digest = signed.digest();
        ctx.charge_crypto(CryptoOp::Hash);
        ctx.charge_crypto(CryptoOp::Sign); // order requests are signed
        let view = self.gate.view();
        ctx.broadcast_replicas(ZyzzyvaMsg::OrderReq {
            view,
            seq,
            digest,
            request: signed.clone(),
        });
        self.accept_order(seq, signed, ctx);
    }

    fn accept_order(
        &mut self,
        seq: SeqNum,
        signed: SignedRequest,
        ctx: &mut Context<'_, ZyzzyvaMsg>,
    ) {
        self.known.insert(signed.request.id, signed.clone());
        self.pending.insert(seq, signed);
        self.execute_ready(ctx);
    }

    fn execute_ready(&mut self, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        let view = self.gate.view();
        while let Some(signed) = self.pending.remove(&self.exec.sm().last_executed().next()) {
            let mut spec_reply = |ctx: &mut Context<'_, ZyzzyvaMsg>, reply: Reply, seq| {
                ctx.observe(Observation::Commit {
                    seq,
                    view,
                    digest: signed.digest(),
                    speculative: true,
                });
                ctx.charge_crypto(CryptoOp::MacGen);
                ctx.send(
                    NodeId::Client(reply.request.client),
                    ZyzzyvaMsg::SpecReply { reply, seq },
                );
            };
            self.exec.execute(ctx, &signed, view, &mut spec_reply);
        }
        self.intake.settle(ctx, &self.exec);
    }

    fn on_commit_cert(
        &mut self,
        request: RequestId,
        seq: SeqNum,
        state_digest: Digest,
        ctx: &mut Context<'_, ZyzzyvaMsg>,
    ) {
        ctx.charge_crypto_n(CryptoOp::MacVerify, self.q.quorum());
        // adopt: everything up to seq is now committed (final). The final
        // commit is observed with the *state* digest at the certified
        // position — matching certificates imply matching histories.
        if seq > self.max_cc && seq <= self.exec.sm().last_executed() {
            ctx.observe(Observation::Commit {
                seq,
                view: self.gate.view(),
                digest: state_digest,
                speculative: false,
            });
            self.max_cc = seq;
            self.exec.confirm_up_to(seq);
        }
        let me = self.me;
        let view = self.gate.view();
        ctx.charge_crypto(CryptoOp::MacGen);
        ctx.send(
            NodeId::Client(request.client),
            ZyzzyvaMsg::LocalCommit {
                request,
                view,
                from: me,
                state_digest,
            },
        );
    }

    fn on_confirm_request(&mut self, signed: &SignedRequest, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        // answer from cache if already executed
        let answer = |ctx: &mut Context<'_, ZyzzyvaMsg>, reply: Reply, seq| {
            ctx.send(
                NodeId::Client(reply.request.client),
                ZyzzyvaMsg::SpecReply { reply, seq },
            );
        };
        let view = self.gate.view();
        if !Intake::admit(ctx, &self.store, &self.exec, signed, view, answer) {
            return;
        }
        self.known.insert(signed.request.id, signed.clone());
        if self.is_leader() {
            self.order(signed.clone(), ctx);
        } else {
            // forward to the leader and hold it accountable (τ2)
            let may_arm = !self.gate.in_view_change();
            self.intake
                .relay(ctx, signed, self.leader(), ZyzzyvaMsg::Request, may_arm);
        }
    }

    fn start_view_change(&mut self, target: View, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        if target <= self.gate.view() || self.gate.in_view_change() {
            return;
        }
        self.gate.set_in_view_change(true);
        ctx.observe(Observation::StageEnter {
            stage: Stage::ViewChange,
        });
        ctx.charge_crypto(CryptoOp::Sign);
        let me = self.me;
        let max_cc = self.max_cc;
        ctx.broadcast_replicas(ZyzzyvaMsg::ViewChange {
            new_view: target,
            max_cc,
            from: me,
        });
        self.record_vc(me, target, max_cc, ctx);
    }

    fn record_vc(
        &mut self,
        from: ReplicaId,
        target: View,
        max_cc: SeqNum,
        ctx: &mut Context<'_, ZyzzyvaMsg>,
    ) {
        let votes = self.vc_votes.entry(target).or_default();
        if votes.iter().any(|(r, _)| *r == from) {
            return;
        }
        votes.push((from, max_cc));
        let have = votes.len();
        // join rule
        if target > self.gate.view() && !self.gate.in_view_change() && have > self.q.f {
            self.start_view_change(target, ctx);
            return;
        }
        if target.leader_of(self.q.n) == self.me
            && self.gate.in_view_change()
            && have >= self.q.quorum()
        {
            let from_seq = votes.iter().map(|(_, cc)| *cc).max().unwrap_or(SeqNum(0));
            ctx.charge_crypto(CryptoOp::Sign);
            ctx.broadcast_replicas(ZyzzyvaMsg::NewView {
                view: target,
                from_seq,
            });
            self.install_view(target, from_seq, ctx);
        }
    }

    fn install_view(&mut self, view: View, from_seq: SeqNum, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        self.gate.install(view);
        self.vc_votes.retain(|v, _| *v > view);
        self.intake.disarm(ctx);
        self.intake.clear_pending();
        ctx.observe(Observation::NewView { view });
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
        // roll back speculation above the agreed commit point
        let restart_from = from_seq.max(self.max_cc);
        if self.exec.sm().last_executed() > restart_from {
            // rolled-back requests become re-orderable
            self.exec.rollback(ctx, restart_from.next());
        }
        self.pending.retain(|s, _| *s > restart_from);
        self.next_seq = restart_from.next();
        if self.is_leader() {
            // re-order everything we know that is not yet executed
            let todo: Vec<SignedRequest> = self
                .known
                .values()
                .filter(|r| !self.exec.is_executed(&r.request.id))
                .cloned()
                .collect();
            for r in todo {
                self.order(r, ctx);
            }
        }
        // replay order assignments that raced ahead of the new-view
        for (from, msg) in self.gate.replay_after_install() {
            self.on_message(from, &msg, ctx);
        }
    }
}

impl Actor<ZyzzyvaMsg> for ZyzzyvaReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
    }

    fn on_message(&mut self, from: NodeId, msg: &ZyzzyvaMsg, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        match msg {
            ZyzzyvaMsg::Request(signed) => {
                if Intake::verify(ctx, &self.store, signed) {
                    self.known.insert(signed.request.id, signed.clone());
                    self.order(signed.clone(), ctx);
                }
            }
            ZyzzyvaMsg::ConfirmRequest(signed) => self.on_confirm_request(signed, ctx),
            ZyzzyvaMsg::OrderReq {
                view,
                seq,
                digest,
                request,
            } => {
                let (view, seq, digest) = (*view, *seq, *digest);
                if !self.gate.admit(from, view, msg) {
                    return;
                }
                if from != NodeId::Replica(self.leader()) {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify);
                if digest_of(&request.request) != digest {
                    return;
                }
                if seq <= self.exec.sm().last_executed() {
                    return; // old or conflicting assignment
                }
                self.accept_order(seq, request.clone(), ctx);
            }
            ZyzzyvaMsg::CommitCert {
                request,
                view,
                seq,
                state_digest,
                replicas,
            } => {
                if replicas.len() >= self.q.quorum() && *view <= self.gate.view() {
                    self.on_commit_cert(*request, *seq, *state_digest, ctx);
                }
            }
            ZyzzyvaMsg::ViewChange {
                new_view,
                max_cc,
                from: r,
            } => {
                ctx.charge_crypto(CryptoOp::Verify);
                self.record_vc(*r, *new_view, *max_cc, ctx);
            }
            ZyzzyvaMsg::NewView { view, from_seq } => {
                if *view >= self.gate.view() && from == NodeId::Replica(view.leader_of(self.q.n)) {
                    ctx.charge_crypto(CryptoOp::Verify);
                    self.install_view(*view, *from_seq, ctx);
                }
            }
            ZyzzyvaMsg::SpecReply { .. } | ZyzzyvaMsg::LocalCommit { .. } => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        if kind == TimerKind::T2ViewChange && self.intake.fired(id) && self.intake.has_pending() {
            let target = self.gate.view().next();
            self.start_view_change(target, ctx);
        }
    }
}

/// The Zyzzyva client hooks: the *repairer* of dimension P6. The fast
/// quorum of matching speculative replies completes a request in one
/// round (`n` for Zyzzyva, 4f+1 for Zyzzyva5: `FIVE`); after τ1 the client
/// assembles a commit certificate from 2f+1 matching replies, or escalates
/// with a confirm-request when it holds fewer.
pub struct ZyzzyvaClientProto<const FIVE: bool>;

/// What a Zyzzyva request's record tracks beyond the shared fields.
#[derive(Default)]
pub struct Repair {
    /// Local-commit acks per state digest.
    lc_acks: BTreeMap<Digest, Vec<ReplicaId>>,
    /// History position reported alongside each state digest.
    seq_of_digest: BTreeMap<Digest, SeqNum>,
}

impl<const FIVE: bool> ZyzzyvaClientProto<FIVE> {
    /// Matching replies needed for single-round completion.
    fn fast_quorum(q: &QuorumRules) -> usize {
        if FIVE {
            4 * q.f + 1
        } else {
            q.n
        }
    }

    fn send_commit_cert(
        rec: &Pending<Repair>,
        view: View,
        state_digest: Digest,
        q: &QuorumRules,
        ctx: &mut Context<'_, ZyzzyvaMsg>,
    ) {
        let seq = rec
            .extra
            .seq_of_digest
            .get(&state_digest)
            .copied()
            .unwrap_or(SeqNum(0));
        ctx.charge_crypto_n(CryptoOp::MacGen, q.n);
        ctx.broadcast_replicas(ZyzzyvaMsg::CommitCert {
            request: rec.signed.request.id,
            view,
            seq,
            state_digest,
            replicas: (0..q.quorum() as u32).map(ReplicaId).collect(),
        });
    }

    /// The agreed result: whatever quorum of matching spec replies the
    /// collector converged on (a quorum exists on both completion paths).
    fn result(rec: &Pending<Repair>) -> TxnResult {
        let best = rec.collector.best_matching_reply();
        best.map_or(TxnResult { reads: vec![] }, |r| r.result.clone())
    }
}

impl<const FIVE: bool> ClientProtocol for ZyzzyvaClientProto<FIVE> {
    type Msg = ZyzzyvaMsg;
    type Extra = Repair;
    const SUBMIT: SubmitPolicy = SubmitPolicy::LeaderThenBroadcast;
    const RETRANSMIT_DELTAS: u64 = 2;
    const REPLY_CHECK: CryptoOp = CryptoOp::MacVerify;

    fn wrap_request(req: SignedRequest) -> ZyzzyvaMsg {
        ZyzzyvaMsg::Request(req)
    }

    fn unwrap_reply(msg: &ZyzzyvaMsg) -> Option<&Reply> {
        match msg {
            ZyzzyvaMsg::SpecReply { reply, .. } => Some(reply),
            _ => None,
        }
    }

    fn request_of(msg: &ZyzzyvaMsg) -> Option<RequestId> {
        match msg {
            ZyzzyvaMsg::SpecReply { reply, .. } => Some(reply.request),
            ZyzzyvaMsg::LocalCommit { request, .. } => Some(*request),
            _ => None,
        }
    }

    fn on_reply(
        from: ReplicaId,
        msg: &ZyzzyvaMsg,
        rec: &mut Pending<Repair>,
        q: &QuorumRules,
        ctx: &mut Context<'_, ZyzzyvaMsg>,
    ) -> Option<(TxnResult, bool)> {
        match msg {
            ZyzzyvaMsg::SpecReply { reply, seq } => {
                rec.extra.seq_of_digest.insert(reply.state_digest, *seq);
                rec.collector.offer(from, reply.clone(), usize::MAX);
                let matched = rec.collector.best_matching();
                if matched >= Self::fast_quorum(q) {
                    return Some((Self::result(rec), true));
                }
                if rec.retransmitted && matched >= q.quorum() {
                    // slow path: enough matching speculative replies for a
                    // commit certificate
                    Self::send_commit_cert(rec, reply.view, reply.state_digest, q, ctx);
                }
                None
            }
            ZyzzyvaMsg::LocalCommit {
                state_digest,
                from: r,
                ..
            } => {
                let acks = rec.extra.lc_acks.entry(*state_digest).or_default();
                if !acks.contains(r) {
                    acks.push(*r);
                }
                (acks.len() >= q.quorum()).then(|| (Self::result(rec), false))
            }
            _ => None,
        }
    }

    fn on_timeout(rec: &mut Pending<Repair>, q: &QuorumRules, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        if rec.collector.best_matching() < q.quorum() {
            // too few matching replies: escalate via confirm-request
            ctx.broadcast_replicas(ZyzzyvaMsg::ConfirmRequest(rec.signed.clone()));
        } else if let CollectStatus::Complete { reply, .. } = rec.collector.status(q.quorum()) {
            // assemble the commit certificate from what we have
            Self::send_commit_cert(rec, reply.view, reply.state_digest, q, ctx);
        }
    }
}

/// Zyzzyva deployment variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZyzzyvaVariant {
    /// Classic: n = 3f+1, fast quorum = n.
    Classic,
    /// Zyzzyva5 (design choice 10): n = 5f+1, fast quorum = 4f+1 — the
    /// fast path survives f faults.
    Five,
}

/// Run Zyzzyva (or Zyzzyva5) under a scenario.
pub fn run(scenario: &Scenario, variant: ZyzzyvaVariant) -> RunOutcome {
    let view_timeout = SimDuration(scenario.network.delta.0 * 4);
    let replica = |me, q, store| ZyzzyvaReplica::new(me, q, store, view_timeout);
    match variant {
        ZyzzyvaVariant::Classic => {
            let n = scenario.n(3 * scenario.f + 1);
            launch::<ZyzzyvaClientProto<false>, _>(scenario, n, replica)
        }
        ZyzzyvaVariant::Five => {
            let n = scenario.n(5 * scenario.f + 1);
            launch::<ZyzzyvaClientProto<true>, _>(scenario, n, replica)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim::{FaultPlan, SafetyAuditor, SimTime};

    fn accepted(out: &RunOutcome) -> usize {
        out.log.client_latencies().len()
    }

    fn fast_accepts(out: &RunOutcome) -> usize {
        out.log.count(|e| {
            matches!(
                e.obs,
                Observation::ClientAccept {
                    fast_path: true,
                    ..
                }
            )
        })
    }

    #[test]
    fn fault_free_fast_path() {
        let s = Scenario::small(1).with_load(1, 30);
        let out = run(&s, ZyzzyvaVariant::Classic);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 30);
        assert_eq!(fast_accepts(&out), 30, "every request takes the fast path");
        assert_eq!(out.log.max_view(), View(0));
    }

    #[test]
    fn backup_crash_forces_slow_path() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(2), SimTime::ZERO));
        let out = run(&s, ZyzzyvaVariant::Classic);
        SafetyAuditor::excluding(vec![NodeId::replica(2)]).assert_safe(&out.log);
        assert_eq!(accepted(&out), 20, "liveness holds via commit certificates");
        assert_eq!(fast_accepts(&out), 0, "fast path needs all n replicas");
    }

    #[test]
    fn zyzzyva5_fast_path_survives_backup_crash() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(3), SimTime::ZERO));
        let out = run(&s, ZyzzyvaVariant::Five);
        SafetyAuditor::excluding(vec![NodeId::replica(3)]).assert_safe(&out.log);
        assert_eq!(accepted(&out), 20);
        assert_eq!(
            fast_accepts(&out),
            20,
            "Zyzzyva5's fast path tolerates f faults"
        );
    }

    #[test]
    fn leader_crash_triggers_view_change() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(0), SimTime(4_000_000)));
        let out = run(&s, ZyzzyvaVariant::Classic);
        SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
        assert!(out.log.max_view() >= View(1), "view change must happen");
        assert_eq!(accepted(&out), 20);
    }

    #[test]
    fn slow_path_latency_is_worse_than_fast_path() {
        let fast = run(
            &Scenario::small(1).with_load(1, 20),
            ZyzzyvaVariant::Classic,
        );
        let slow = run(
            &Scenario::small(1)
                .with_load(1, 20)
                .with_faults(FaultPlan::none().crash(NodeId::replica(2), SimTime::ZERO)),
            ZyzzyvaVariant::Classic,
        );
        let mean = |o: &RunOutcome| {
            let lats = o.log.client_latencies();
            lats.iter().map(|(_, d)| d.0).sum::<u64>() / lats.len() as u64
        };
        assert!(
            mean(&slow) > 2 * mean(&fast),
            "the τ1 wait + certificate round must show: {} vs {}",
            mean(&slow),
            mean(&fast)
        );
    }

    #[test]
    fn deterministic() {
        let s = Scenario::small(1).with_load(2, 10);
        let a = run(&s, ZyzzyvaVariant::Classic);
        let b = run(&s, ZyzzyvaVariant::Classic);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
    }
}
