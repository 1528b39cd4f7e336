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
//!   τ2, and the family's view change (`ViewChanger`) replaces the leader:
//!   its new view keeps the highest commit-certified history any voter
//!   reports and, above it, each order f+1 voters report. Speculative
//!   executions the new view does not keep roll back.
//!
//! The replica is a member of the replica skeleton (`Core`): an order
//! request is a proposal in the shared slot log, committed the moment it
//! is accepted, and the skeleton's drain executes it speculatively; its
//! checkpointing stage is what collects the history, as in Kotla et al.
//!
//! **Zyzzyva5** (design choice 10, *resilience*) runs the same code with
//! `n = 5f+1` and a fast quorum of `4f+1`: the fast path then survives `f`
//! actual faults instead of zero.

use std::collections::BTreeMap;
use std::sync::Arc;

use bft_crypto::{CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, Observation, RestartMode, SimDuration, TimerId};
use bft_types::{
    Digest, QuorumRules, ReplicaId, Reply, RequestId, SeqNum, TimerKind, TxnResult, View, WireSize,
};

use crate::client::{launch, ClientProtocol, Pending, SubmitPolicy};
use crate::common::{
    Core, Entry, Execution, RequestWire, Scenario, SignedRequest, ViewChanger, ViewMsg,
};
use bft_core::client::CollectStatus;

/// Zyzzyva protocol messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum ZyzzyvaMsg {
    /// Client → leader: a signed request.
    Request(SignedRequest),
    /// Client → all replicas: the request again, after a failed fast path
    /// (confirm-request: forces the leader's hand and arms τ2 at backups).
    ConfirmRequest(SignedRequest),
    /// Leader → replicas: speculative order assignment of a batch.
    OrderReq {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Batch digest.
        digest: Digest,
        /// The ordered batch.
        batch: Vec<SignedRequest>,
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
    /// View change and checkpointing: votes report every ordered slot.
    View(ViewMsg<Ordered>),
}

/// One ordered slot as a view-change vote reports it and a new view
/// re-proposes it: the batch, and whether a commit certificate covers it.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Ordered {
    /// The batch.
    pub batch: Vec<SignedRequest>,
    /// Whether the slot is at or below the reporter's commit certificate.
    pub certified: bool,
}

impl WireSize for ZyzzyvaMsg {
    fn wire_size(&self) -> usize {
        match self {
            ZyzzyvaMsg::Request(r) | ZyzzyvaMsg::ConfirmRequest(r) => 1 + r.wire_size(),
            ZyzzyvaMsg::OrderReq { batch, .. } => 1 + 8 + 8 + 32 + batch.wire_size() + 32,
            ZyzzyvaMsg::SpecReply { reply, .. } => 1 + reply.wire_size() + 8,
            ZyzzyvaMsg::CommitCert { replicas, .. } => 1 + 16 + 8 + 8 + 32 + replicas.len() * 36,
            ZyzzyvaMsg::LocalCommit { .. } => 1 + 16 + 8 + 4 + 32 + 32,
            ZyzzyvaMsg::View(m) => m.wire_size(64, |o| 1 + o.batch.wire_size()),
        }
    }
}

/// A Zyzzyva replica.
pub struct ZyzzyvaReplica {
    core: Core<ZyzzyvaMsg, (), Ordered>,
    /// Highest slot covered by a commit certificate.
    max_cc: SeqNum,
}

impl ZyzzyvaReplica {
    /// Create a replica with its [`Scenario::timing`].
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        timing: (SimDuration, u64),
        batch_size: usize,
    ) -> Self {
        let exec = Execution::new().speculative();
        ZyzzyvaReplica {
            core: Core::new((me, q, store), ZyzzyvaMsg::View, exec, timing, batch_size),
            max_cc: SeqNum(0),
        }
    }

    /// Install the order of slot `seq`: a valid order commits the slot at
    /// once. `false` if the slot holds another order already.
    fn order(&mut self, seq: SeqNum, digest: Digest, batch: Vec<SignedRequest>) -> bool {
        let fresh = self.core.log.install(seq, digest, batch);
        self.core.log.slot(seq).committed |= fresh;
        fresh
    }

    fn propose(&mut self, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        if !self.core.is_leader() || self.core.gate.in_view_change() {
            return;
        }
        self.core.drop_ordered();
        while let Some((seq, digest, batch)) = self.core.cut(ctx) {
            ctx.charge_crypto(CryptoOp::Sign); // order requests are signed
            let view = self.core.gate.view();
            self.order(seq, digest, batch.clone());
            ctx.broadcast_replicas(ZyzzyvaMsg::OrderReq {
                view,
                seq,
                digest,
                batch,
            });
        }
        self.execute(ctx);
    }

    /// A commit certificate for history position `seq`. If this replica's
    /// history reached `state_digest` there, everything up to the slot
    /// holding `seq` is final — observed at that slot with its batch
    /// digest, as its speculative commit was — and the client gets this
    /// replica's local-commit ack. A position below what the history
    /// still holds is final already (a stable checkpoint collected it, or
    /// a snapshot brought it): it is acked as it stands.
    fn on_commit_cert(
        &mut self,
        request: RequestId,
        seq: SeqNum,
        state_digest: Digest,
        ctx: &mut Context<'_, ZyzzyvaMsg>,
    ) {
        ctx.charge_crypto_n(CryptoOp::MacVerify, self.core.q.quorum());
        let (sm, view) = (self.core.exec.sm(), self.core.gate.view());
        let history = sm.history();
        let settled = history
            .first()
            .map_or(seq <= sm.last_executed(), |e| seq < e.seq);
        let held = history.iter().rfind(|e| e.seq == seq);
        if held.is_some_and(|e| e.state_digest == state_digest) {
            let mut executed = self.core.log.range(..=self.core.exec.cursor()).rev();
            let holding = executed.find(|(_, s)| s.sm_start.is_some_and(|at| at <= seq));
            if let Some((slot, s)) = holding.filter(|(slot, _)| **slot > self.max_cc) {
                ctx.observe(Observation::Commit {
                    seq: *slot,
                    view,
                    digest: s.digest.unwrap_or(Digest::ZERO),
                    speculative: false,
                });
                self.max_cc = *slot;
                self.core.exec.confirm_up_to(seq);
            }
        } else if !settled {
            return;
        }
        let from = self.core.me;
        ctx.charge_crypto(CryptoOp::MacGen);
        ctx.send(
            NodeId::Client(request.client),
            ZyzzyvaMsg::LocalCommit {
                request,
                view,
                from,
                state_digest,
            },
        );
    }
}

/// Zyzzyva on the family's view change.
impl ViewChanger for ZyzzyvaReplica {
    type Msg = ZyzzyvaMsg;
    type Ext = ();
    type Payload = Ordered;

    fn core(&mut self) -> &mut Core<ZyzzyvaMsg, (), Ordered> {
        &mut self.core
    }

    /// Every slot ordered above the stable checkpoint, executed or not,
    /// marked where this replica's commit certificate covers it.
    fn report(&mut self, _: &mut Context<'_, ZyzzyvaMsg>) -> Vec<Entry<Ordered>> {
        let (stable, max_cc) = (self.core.ckpt.low_water(), self.max_cc);
        let ordered = self.core.log.entries_above(stable, |_| true).into_iter();
        let mark = |(seq, digest, batch)| {
            let certified = seq <= max_cc;
            (seq, digest, Ordered { batch, certified })
        };
        ordered.map(mark).collect()
    }

    /// Zyzzyva's rule, slot by slot above the highest stable checkpoint:
    /// up to the highest commit-certified position any voter reports, that
    /// voter's order; above it, an order at least f+1 voters report — up
    /// to the first slot with neither.
    fn assemble(&mut self, target: View) -> Vec<Entry<Ordered>> {
        let (f, votes) = (self.core.q.f, self.core.votes.votes(target));
        let certified = |report: &[Entry<Ordered>]| {
            let covered = report.iter().filter(|(.., o)| o.certified);
            covered.map(|(seq, ..)| *seq).max()
        };
        let certifier = votes.iter().max_by_key(|(.., report)| certified(report));
        let top = certifier.and_then(|(.., report)| certified(report));
        fn at(report: &[Entry<Ordered>], seq: SeqNum) -> Option<&Entry<Ordered>> {
            report.iter().find(|(s, ..)| *s == seq)
        }
        let mut kept = Vec::new();
        for seq in (self.core.votes.stable(target).0 + 1..).map(SeqNum) {
            let reports: Vec<&Entry<Ordered>> =
                votes.iter().filter_map(|(.., r)| at(r, seq)).collect();
            let backers = |d: &Digest| reports.iter().filter(|(_, e, _)| e == d).count();
            let backed = reports.iter().find(|(_, d, _)| backers(d) > f).copied();
            let certified = certifier.filter(|_| Some(seq) <= top);
            match certified.and_then(|(.., r)| at(r, seq)).or(backed) {
                Some(entry) => kept.push(entry.clone()),
                None => break,
            }
        }
        kept
    }

    /// The new view is authoritative: an adopted slot executes at once,
    /// and a certified one is certified here too.
    fn adopt(&mut self, (seq, digest, ordered): Entry<Ordered>, _: &mut Context<'_, ZyzzyvaMsg>) {
        if ordered.certified {
            self.max_cc = self.max_cc.max(seq);
        }
        let slot = self.core.log.reinstall(seq, digest, ordered.batch);
        slot.committed = true;
    }

    fn requeue(&mut self, stranded: Vec<SignedRequest>) {
        self.core.mempool.requeue(&self.core.exec, &stranded);
    }

    fn resume(&mut self, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        self.propose(ctx);
    }

    fn execute(&mut self, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        let deliver = |ctx: &mut Context<'_, ZyzzyvaMsg>, reply: Reply, seq| {
            ctx.charge_crypto(CryptoOp::MacGen);
            let client = NodeId::Client(reply.request.client);
            ctx.send(client, ZyzzyvaMsg::SpecReply { reply, seq });
        };
        self.core.drain(ctx, deliver, |ctx, intake, exec, _| {
            intake.settle(ctx, exec)
        });
    }

    /// After an amnesia restart no certificate is remembered.
    fn forget(&mut self, amnesia: bool) {
        if amnesia {
            self.max_cc = SeqNum(0);
        }
    }
}

impl Actor<ZyzzyvaMsg> for ZyzzyvaReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        self.start(ctx);
    }

    fn on_recover(&mut self, mode: RestartMode, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        self.restart(mode, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: &ZyzzyvaMsg, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        match msg {
            // a backup relays either to the leader and holds it to it (τ2)
            ZyzzyvaMsg::Request(signed) | ZyzzyvaMsg::ConfirmRequest(signed) => {
                let reply = |reply, seq| ZyzzyvaMsg::SpecReply { reply, seq };
                let wire: RequestWire<ZyzzyvaMsg> = (Some(reply), Some(ZyzzyvaMsg::Request));
                if self.core.take_request(ctx, signed, wire) {
                    self.propose(ctx);
                }
            }
            ZyzzyvaMsg::OrderReq {
                view,
                seq,
                digest,
                batch,
            } => {
                let (view, seq, digest) = (*view, *seq, *digest);
                if !self.admit_proposal(ctx, (from, view, msg), (seq, digest), batch) {
                    return;
                }
                self.core.mempool.remove(batch);
                if self.order(seq, digest, batch.clone()) {
                    self.execute(ctx);
                }
            }
            ZyzzyvaMsg::CommitCert {
                request,
                view,
                seq,
                state_digest,
                replicas,
            } => {
                if replicas.len() >= self.core.q.quorum() && *view <= self.core.gate.view() {
                    self.on_commit_cert(*request, *seq, *state_digest, ctx);
                }
            }
            // a view is installed once: a second copy of its new view (the
            // leader answers a vote that crossed it) would roll back what
            // executed in the view since
            ZyzzyvaMsg::View(vc) if self.core.last_new_view.as_ref() == Some(vc) => {}
            ZyzzyvaMsg::View(vc) => self.on_view_msg(from, vc, ctx),
            ZyzzyvaMsg::SpecReply { .. } | ZyzzyvaMsg::LocalCommit { .. } => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, _: TimerKind, ctx: &mut Context<'_, ZyzzyvaMsg>) {
        self.on_view_timer(id, ctx);
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
    let (timing, batch) = (scenario.timing(), scenario.batch_size);
    let replica = |me, q, store| ZyzzyvaReplica::new(me, q, store, timing, batch);
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
        out.log.accepted()
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

    /// On the slow path (a crashed backup) every final commit a replica
    /// observes is the speculative commit it observed at that slot — same
    /// slot, same batch digest — unless a rollback came between them.
    #[test]
    fn a_final_commit_confirms_the_speculative_commit_at_its_slot() {
        let s = Scenario::small(1)
            .with_load(2, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(2), SimTime::ZERO));
        let out = run(&s, ZyzzyvaVariant::Classic);
        let mut speculated: BTreeMap<(NodeId, SeqNum), Digest> = BTreeMap::new();
        let mut finals = 0;
        for e in out.log.entries.iter() {
            match e.obs {
                Observation::Commit {
                    seq,
                    digest,
                    speculative,
                    ..
                } if speculative => {
                    speculated.insert((e.node, seq), digest);
                }
                Observation::Commit { seq, digest, .. } => {
                    finals += 1;
                    assert_eq!(speculated.get(&(e.node, seq)), Some(&digest), "{seq:?}");
                }
                Observation::Rollback { .. } => speculated.retain(|(node, _), _| *node != e.node),
                _ => {}
            }
        }
        assert!(finals >= 40, "every request took the certificate path");
    }

    /// Regression for the Byzantine campaign's zyzzyva5 seed 133: the
    /// leader censors its traffic to r1 and r3 and holds most of the rest
    /// for 28 ms. r2 and r4 complete the client's first two requests by
    /// commit certificate. The view change used to carry only the certified
    /// position, so the new leader, which never saw those orders, ordered
    /// both requests again and r2 and r4 executed each twice (the client's
    /// accepted results disagreed with the replay: 4 vs 8, −3 vs −6). The
    /// new view now carries the certified history itself.
    #[test]
    fn a_new_view_keeps_the_certified_history_instead_of_reordering_it() {
        use crate::registry::ProtocolId;
        use crate::suite::semantic_config;
        use bft_sim::campaign::check_outcome_with_semantics;
        use bft_sim::{AdversarySpec, Attack};
        let censor = Attack::Censor {
            victims: vec![NodeId::replica(3), NodeId::replica(1)],
            outbound: true,
            inbound: false,
        };
        let delay = Attack::Delay {
            hold: SimDuration(28_198_276),
            prob: 0.8893538180043578,
        };
        let adversary = AdversarySpec::new(0, censor).and(delay);
        let s = Scenario::small(1)
            .with_load(1, 8)
            .with_seed(133)
            .with_adversaries(vec![adversary]);
        let out = run(&s, ZyzzyvaVariant::Five);
        assert!(out.log.max_view() >= View(1), "the leader is replaced");
        let semantic = semantic_config(ProtocolId::Zyzzyva5, &s);
        let faulty = vec![NodeId::replica(0)];
        let violation = check_outcome_with_semantics(&out.log, faulty, 8, &semantic);
        assert_eq!(violation, None);
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
