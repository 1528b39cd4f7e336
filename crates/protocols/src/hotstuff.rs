//! HotStuff — linear, responsive BFT with a rotating leader (Yin et al. '19).
//!
//! The composition of design choices 1 and 3 on PBFT:
//!
//! * **Linearization (DC1)** — all agreement phases are star-shaped: the
//!   leader proposes, replicas send threshold-signature votes back, the
//!   leader combines them into a *quorum certificate* (QC) and broadcasts
//!   it. Three vote rounds — prepare, pre-commit, commit — give the same
//!   guarantees as PBFT's prepare/commit plus view-change safety.
//! * **Leader rotation (DC3)** — the leader changes every decision. There
//!   is no separate view-change stage: the extra ordering round plus the
//!   `new-view … justify QC` handshake replace it, which is exactly the
//!   trade-off the paper describes (longer pipeline, no view-change
//!   routine, load balanced across replicas).
//! * **Responsiveness (E4)** — a new leader proposes as soon as it holds
//!   `n − f` new-view messages; it never waits a Δ. The Pacemaker's τ5
//!   timer only fires when progress actually stalls.
//!
//! Safety follows the HotStuff rules: replicas *lock* on a pre-commit QC
//! and only vote for conflicting proposals justified by a higher-view QC.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, Observation, SimDuration, Stage, TimerId};
use bft_types::{
    Digest, QuorumRules, ReplicaId, Reply, RequestId, SeqNum, TimerKind, View, WireSize,
};

use crate::common::{
    enqueue_unique, launch, reply_to_client, ClientProtocol, Execution, Intake, Scenario,
    SignedRequest, SubmitPolicy,
};

/// The three vote phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize)]
pub enum HsPhase {
    /// First round: accept the proposal.
    Prepare,
    /// Second round: lock.
    PreCommit,
    /// Third round: commit.
    Commit,
}

/// A quorum certificate: `n − f` combined votes for (phase, view, seq,
/// digest). Constant-size on the wire (threshold signature).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Qc {
    /// Certified phase.
    pub phase: HsPhase,
    /// View.
    pub view: View,
    /// Slot.
    pub seq: SeqNum,
    /// Batch digest.
    pub digest: Digest,
}

/// HotStuff messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum HsMsg {
    /// Client → replicas (broadcast; the current leader picks it up).
    Request(SignedRequest),
    /// Replica → client.
    Reply(Reply),
    /// Leader → replicas: proposal justified by the leader's high QC.
    Proposal {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Batch digest.
        digest: Digest,
        /// The batch.
        batch: Vec<SignedRequest>,
        /// Justification (high QC the leader extends).
        justify: Option<Qc>,
    },
    /// Replica → leader: threshold vote share.
    Vote {
        /// Voted phase.
        phase: HsPhase,
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Digest voted for.
        digest: Digest,
        /// Voter.
        from: ReplicaId,
    },
    /// Leader → replicas: the QC for a completed phase (drives the next
    /// phase, or the decision after `Commit`).
    QcAnnounce {
        /// The certificate.
        qc: Qc,
    },
    /// Replica → next leader: view synchronization (pacemaker), carrying
    /// the sender's high QC and — so the new leader can re-propose it — the
    /// corresponding batch.
    NewView {
        /// The view being entered.
        view: View,
        /// Sender.
        from: ReplicaId,
        /// Sender's high QC.
        high_qc: Option<Qc>,
        /// The batch certified by `high_qc`, if this sender has it.
        high_batch: Option<Vec<SignedRequest>>,
    },
}

impl WireSize for HsMsg {
    fn wire_size(&self) -> usize {
        const QC: usize = 8 + 8 + 32 + 96 + 1; // view+seq+digest+threshold sig+phase
        match self {
            HsMsg::Request(r) => 1 + r.wire_size(),
            HsMsg::Reply(r) => 1 + r.wire_size(),
            HsMsg::Proposal { batch, .. } => 1 + 16 + 32 + batch.wire_size() + QC,
            HsMsg::Vote { .. } => 1 + 1 + 16 + 32 + 72,
            HsMsg::QcAnnounce { .. } => 1 + QC,
            HsMsg::NewView { high_batch, .. } => {
                // an absent batch travels as an empty one
                let entries = high_batch.iter().flatten();
                1 + 8 + 4 + QC + 4 + entries.map(WireSize::wire_size).sum::<usize>()
            }
        }
    }
}

/// A HotStuff replica.
pub struct HotStuffReplica {
    me: ReplicaId,
    q: QuorumRules,
    store: Arc<KeyStore>,
    view: View,
    /// The slot currently being decided (one slot per view).
    cur: Option<(SeqNum, Digest, Vec<SignedRequest>)>,
    /// Leader: votes per (phase, seq, digest).
    votes: BTreeMap<(HsPhase, SeqNum, Digest), Vec<ReplicaId>>,
    /// Highest prepare QC seen (justifies new proposals).
    high_qc: Option<Qc>,
    /// Per-slot locks (pre-commit QCs): the safety anchor. A replica never
    /// prepare-votes a conflicting digest for a locked slot unless the
    /// proposal is justified by a newer prepare QC **for that same slot**
    /// — the flattened form of HotStuff's branch-extension rule.
    locks: BTreeMap<SeqNum, Qc>,
    /// Decided slots awaiting execution order.
    decided: BTreeMap<SeqNum, (Digest, View)>,
    mempool: VecDeque<SignedRequest>,
    exec: Execution,
    /// New-view messages per view (pacemaker).
    new_views: BTreeMap<View, Vec<ReplicaId>>,
    /// τ5 pacemaker timer.
    t5: Option<TimerId>,
    t5_timeout: SimDuration,
    /// Proposal already made in the current view.
    proposed_this_view: bool,
    batch_size: usize,
    /// Slot batches by digest (to execute on decide even if the decide QC
    /// arrives before the proposal — buffered).
    batches: BTreeMap<Digest, Vec<SignedRequest>>,
    /// Traffic for views we have not entered yet, replayed on entry. The
    /// view advances per decision, so the next leader's proposal (and the
    /// QCs cascading behind it) routinely overtakes the previous view's
    /// commit announcement on engines with real concurrency; dropping it
    /// silently turns a responsive decision into a pacemaker timeout.
    /// Bounded window against flooding.
    pending: BTreeMap<View, Vec<PendingHs>>,
}

/// A buffered ahead-of-view message. Proposals are re-validated (and
/// crypto-charged) on replay; votes and QCs were charged at arrival.
enum PendingHs {
    Proposal {
        seq: SeqNum,
        digest: Digest,
        batch: Vec<SignedRequest>,
        justify: Option<Qc>,
    },
    Vote {
        from: ReplicaId,
        phase: HsPhase,
        seq: SeqNum,
        digest: Digest,
    },
    Qc(Qc),
}

/// How far ahead of the local view buffered traffic is kept.
const PENDING_VIEW_WINDOW: u64 = 8;

impl HotStuffReplica {
    /// Create a replica.
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        t5_timeout: SimDuration,
        batch_size: usize,
    ) -> Self {
        HotStuffReplica {
            me,
            q,
            store,
            view: View(0),
            cur: None,
            votes: BTreeMap::new(),
            high_qc: None,
            locks: BTreeMap::new(),
            decided: BTreeMap::new(),
            mempool: VecDeque::new(),
            exec: Execution::new().skipping_executed(),
            new_views: BTreeMap::new(),
            t5: None,
            t5_timeout,
            proposed_this_view: false,
            batch_size,
            batches: BTreeMap::new(),
            pending: BTreeMap::new(),
        }
    }

    fn buffer(&mut self, view: View, msg: PendingHs) {
        if view.0 > self.view.0 + PENDING_VIEW_WINDOW {
            return;
        }
        let slot = self.pending.entry(view).or_default();
        if slot.len() < 8 * self.q.n {
            slot.push(msg);
        }
    }

    /// Re-deliver traffic buffered for the view we just entered.
    fn replay_pending(&mut self, ctx: &mut Context<'_, HsMsg>) {
        let v = self.view;
        self.pending.retain(|pv, _| *pv >= v);
        let Some(msgs) = self.pending.remove(&v) else {
            return;
        };
        for msg in msgs {
            match msg {
                PendingHs::Proposal {
                    seq,
                    digest,
                    batch,
                    justify,
                } => self.on_proposal(v, seq, digest, batch, justify, ctx),
                PendingHs::Vote {
                    from,
                    phase,
                    seq,
                    digest,
                } => self.record_vote(from, phase, v, seq, digest, ctx),
                PendingHs::Qc(qc) => self.on_qc(qc, ctx),
            }
        }
    }

    fn leader_of(&self, view: View) -> ReplicaId {
        view.leader_of(self.q.n)
    }

    fn is_leader(&self) -> bool {
        self.leader_of(self.view) == self.me
    }

    fn vote_quorum(&self) -> usize {
        self.q.n - self.q.f
    }

    fn arm_pacemaker(&mut self, ctx: &mut Context<'_, HsMsg>) {
        if self.t5.is_none() {
            self.t5 = Some(ctx.set_timer(TimerKind::T5ViewSync, self.t5_timeout));
        }
    }

    fn disarm_pacemaker(&mut self, ctx: &mut Context<'_, HsMsg>) {
        if let Some(t) = self.t5.take() {
            ctx.cancel_timer(t);
        }
    }

    fn maybe_propose(&mut self, ctx: &mut Context<'_, HsMsg>) {
        if !self.is_leader() || self.proposed_this_view {
            return;
        }
        // HotStuff's continuity rule, flattened to slots: if the highest
        // prepare-certified slot has not decided yet, a new leader must
        // carry it forward (re-propose the same digest at the same slot)
        // before extending the history — otherwise the slot would become a
        // permanent gap in the execution order.
        let (seq, digest, batch) = if let Some(qc) = self.high_qc {
            if qc.seq > self.exec.cursor() && !self.decided.contains_key(&qc.seq) {
                let Some(batch) = self.batches.get(&qc.digest).cloned() else {
                    return; // batch not known yet; a new-view message will carry it
                };
                (qc.seq, qc.digest, batch)
            } else {
                let Some((seq, digest, batch)) = self.next_fresh_batch() else {
                    return;
                };
                (seq, digest, batch)
            }
        } else {
            let Some((seq, digest, batch)) = self.next_fresh_batch() else {
                return;
            };
            (seq, digest, batch)
        };
        ctx.charge_crypto(CryptoOp::Hash);
        ctx.charge_crypto(CryptoOp::Sign);
        self.proposed_this_view = true;
        let view = self.view;
        let justify = self.high_qc;
        self.batches.insert(digest, batch.clone());
        self.cur = Some((seq, digest, batch.clone()));
        ctx.broadcast_replicas(HsMsg::Proposal {
            view,
            seq,
            digest,
            batch,
            justify,
        });
        // leader votes for its own proposal
        self.cast_vote(HsPhase::Prepare, seq, digest, ctx);
        self.arm_pacemaker(ctx);
    }

    /// Pull a fresh batch from the mempool for the next free slot.
    fn next_fresh_batch(&mut self) -> Option<(SeqNum, Digest, Vec<SignedRequest>)> {
        let exec = &self.exec;
        self.mempool.retain(|r| !exec.is_executed(&r.request.id));
        if self.mempool.is_empty() {
            return None;
        }
        let take = self.batch_size.min(self.mempool.len());
        let batch: Vec<SignedRequest> = self.mempool.drain(..take).collect();
        let seq = SeqNum(
            self.high_qc
                .map(|qc| qc.seq.0)
                .unwrap_or(self.exec.cursor().0)
                + 1,
        );
        Some((seq, digest_of(&batch), batch))
    }

    fn cast_vote(
        &mut self,
        phase: HsPhase,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, HsMsg>,
    ) {
        ctx.charge_crypto(CryptoOp::ThresholdShareGen);
        let view = self.view;
        let me = self.me;
        let leader = self.leader_of(view);
        if leader == self.me {
            self.record_vote(me, phase, view, seq, digest, ctx);
        } else {
            ctx.send(
                NodeId::Replica(leader),
                HsMsg::Vote {
                    phase,
                    view,
                    seq,
                    digest,
                    from: me,
                },
            );
        }
    }

    fn on_proposal(
        &mut self,
        view: View,
        seq: SeqNum,
        digest: Digest,
        batch: Vec<SignedRequest>,
        justify: Option<Qc>,
        ctx: &mut Context<'_, HsMsg>,
    ) {
        // a slot that decided ahead of this proposal (its commit certificate
        // outran it) has been waiting for the batch, whatever the view now
        let awaited = !self.batches.contains_key(&digest)
            && self.decided.get(&seq).is_some_and(|(d, _)| *d == digest);
        if view != self.view && !awaited {
            return;
        }
        ctx.charge_crypto(CryptoOp::Verify);
        ctx.charge_crypto(CryptoOp::Hash);
        if digest_of(&batch) != digest {
            return;
        }
        if awaited {
            self.batches.insert(digest, batch);
            return self.try_execute(ctx);
        }
        // never vote on a slot that has already decided or executed
        // here — a lagging leader proposing into history cannot be
        // allowed to re-open it
        if seq <= self.exec.cursor() || self.decided.contains_key(&seq) {
            return;
        }
        // safety rule (per slot): an unlocked slot is free; a locked
        // slot only accepts its locked digest, or a conflicting one
        // justified by a newer prepare QC for the SAME slot
        let safe = match self.locks.get(&seq) {
            None => true,
            Some(l) if l.digest == digest => true,
            Some(l) => {
                justify.is_some_and(|j| j.seq == seq && j.digest == digest && j.view > l.view)
            }
        };
        if !safe {
            return;
        }
        // one proposal per view: ignore any further proposal in the
        // same view (an equivocating leader cannot split votes)
        if self.cur.is_some() {
            return;
        }
        let ids: Vec<RequestId> = batch.iter().map(|r| r.request.id).collect();
        self.mempool.retain(|r| !ids.contains(&r.request.id));
        self.batches.insert(digest, batch.clone());
        self.cur = Some((seq, digest, batch));
        self.cast_vote(HsPhase::Prepare, seq, digest, ctx);
        self.arm_pacemaker(ctx);
    }

    fn record_vote(
        &mut self,
        from: ReplicaId,
        phase: HsPhase,
        view: View,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, HsMsg>,
    ) {
        if view > self.view {
            self.buffer(
                view,
                PendingHs::Vote {
                    from,
                    phase,
                    seq,
                    digest,
                },
            );
            return;
        }
        if view != self.view || !self.is_leader() {
            return;
        }
        if seq <= self.exec.cursor() || self.decided.contains_key(&seq) {
            return;
        }
        let voters = self.votes.entry((phase, seq, digest)).or_default();
        if voters.contains(&from) {
            return;
        }
        voters.push(from);
        if voters.len() == self.vote_quorum() {
            ctx.charge_crypto(CryptoOp::ThresholdCombine);
            let qc = Qc {
                phase,
                view,
                seq,
                digest,
            };
            ctx.broadcast_replicas(HsMsg::QcAnnounce { qc });
            self.on_qc(qc, ctx);
        }
    }

    fn on_qc(&mut self, qc: Qc, ctx: &mut Context<'_, HsMsg>) {
        // a future Commit QC is processed immediately (it is the lagging
        // replica's catch-up path and is safe at any view); future
        // Prepare/PreCommit QCs wait for view entry
        if qc.view > self.view && qc.phase != HsPhase::Commit {
            self.buffer(qc.view, PendingHs::Qc(qc));
            return;
        }
        if qc.view != self.view {
            // stale QC from an earlier view: only the decide step of an
            // earlier view is still interesting (handled via decided map);
            // ignore the rest
            if qc.phase != HsPhase::Commit {
                return;
            }
        }
        ctx.charge_crypto(CryptoOp::ThresholdVerify);
        match qc.phase {
            HsPhase::Prepare => {
                self.high_qc = Some(qc);
                self.cast_vote(HsPhase::PreCommit, qc.seq, qc.digest, ctx);
            }
            HsPhase::PreCommit => {
                let lock = self.locks.entry(qc.seq).or_insert(qc);
                if qc.view >= lock.view {
                    *lock = qc;
                }
                self.cast_vote(HsPhase::Commit, qc.seq, qc.digest, ctx);
            }
            HsPhase::Commit => {
                // decide — exactly once per slot; a re-announced or stale
                // certificate for a decided slot is dropped
                if qc.seq <= self.exec.cursor() || self.decided.contains_key(&qc.seq) {
                    return;
                }
                ctx.observe(Observation::Commit {
                    seq: qc.seq,
                    view: qc.view,
                    digest: qc.digest,
                    speculative: false,
                });
                self.decided.insert(qc.seq, (qc.digest, qc.view));
                self.try_execute(ctx);
                self.advance_view(qc.view.next(), ctx);
            }
        }
    }

    fn try_execute(&mut self, ctx: &mut Context<'_, HsMsg>) {
        while let Some((digest, view)) = self.decided.get(&self.exec.cursor().next()) {
            let deliver = reply_to_client(Some(CryptoOp::Sign), HsMsg::Reply);
            // no batch, no execution: a slot decided ahead of its proposal
            // waits for it (the proposal handler re-enters here)
            let batch = self.batches.get(digest).map(Vec::as_slice);
            if !self.exec.run(ctx, batch, *view, deliver) {
                break;
            }
            let done = self.exec.cursor();
            self.locks.retain(|seq, _| *seq > done);
        }
    }

    fn advance_view(&mut self, target: View, ctx: &mut Context<'_, HsMsg>) {
        if target <= self.view {
            return;
        }
        self.view = target;
        self.cur = None;
        self.proposed_this_view = false;
        self.votes.retain(|_, _| false);
        self.disarm_pacemaker(ctx);
        ctx.observe(Observation::NewView { view: target });
        // pacemaker: tell the new leader our high QC
        let me = self.me;
        let high_qc = self.high_qc;
        let high_batch = high_qc.and_then(|qc| self.batches.get(&qc.digest).cloned());
        let leader = self.leader_of(target);
        if leader != self.me {
            ctx.charge_crypto(CryptoOp::Sign);
            ctx.send(
                NodeId::Replica(leader),
                HsMsg::NewView {
                    view: target,
                    from: me,
                    high_qc,
                    high_batch,
                },
            );
        } else {
            self.on_new_view(me, target, high_qc, high_batch, ctx);
        }
        if !self.mempool.is_empty() {
            self.arm_pacemaker(ctx);
        }
        self.maybe_propose(ctx);
        self.replay_pending(ctx);
    }

    fn on_new_view(
        &mut self,
        from: ReplicaId,
        view: View,
        high_qc: Option<Qc>,
        high_batch: Option<Vec<SignedRequest>>,
        ctx: &mut Context<'_, HsMsg>,
    ) {
        if let Some(qc) = high_qc {
            if self.high_qc.is_none_or(|h| qc.view > h.view) {
                self.high_qc = Some(qc);
            }
            if let Some(batch) = high_batch {
                self.batches.entry(qc.digest).or_insert(batch);
            }
        }
        let entry = self.new_views.entry(view).or_default();
        if !entry.contains(&from) {
            entry.push(from);
        }
        // join rule: f+1 replicas are in a higher view
        if view > self.view && self.new_views.get(&view).map_or(0, |v| v.len()) > self.q.f {
            self.advance_view(view, ctx);
            return;
        }
        // responsive: the new leader proposes once n − f replicas synced
        if view == self.view
            && self.leader_of(view) == self.me
            && self.new_views.get(&view).map_or(0, |v| v.len()) >= self.vote_quorum() - 1
        {
            self.maybe_propose(ctx);
        }
        self.new_views.retain(|v, _| *v >= self.view);
    }
}

impl Actor<HsMsg> for HotStuffReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, HsMsg>) {
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
    }

    fn on_message(&mut self, from: NodeId, msg: &HsMsg, ctx: &mut Context<'_, HsMsg>) {
        match msg {
            HsMsg::Request(signed) => {
                let answer = reply_to_client(None, HsMsg::Reply);
                if !Intake::admit(ctx, &self.store, &self.exec, signed, self.view, answer) {
                    return;
                }
                enqueue_unique(&mut self.mempool, signed);
                self.arm_pacemaker(ctx);
                self.maybe_propose(ctx);
            }
            HsMsg::Proposal {
                view,
                seq,
                digest,
                batch,
                justify,
            } => {
                let (view, seq, digest, justify) = (*view, *seq, *digest, *justify);
                if from != NodeId::Replica(self.leader_of(view)) {
                    return;
                }
                if view > self.view {
                    // the next leader's proposal overtook the previous
                    // view's commit announcement: hold it for view entry
                    self.buffer(
                        view,
                        PendingHs::Proposal {
                            seq,
                            digest,
                            batch: batch.clone(),
                            justify,
                        },
                    );
                    return;
                }
                self.on_proposal(view, seq, digest, batch.clone(), justify, ctx);
            }
            HsMsg::Vote {
                phase,
                view,
                seq,
                digest,
                from: r,
            } => {
                ctx.charge_crypto(CryptoOp::ThresholdShareVerify);
                self.record_vote(*r, *phase, *view, *seq, *digest, ctx);
            }
            HsMsg::QcAnnounce { qc } => {
                if from == NodeId::Replica(self.leader_of(qc.view)) {
                    self.on_qc(*qc, ctx);
                }
            }
            HsMsg::NewView {
                view,
                from: r,
                high_qc,
                high_batch,
            } => {
                ctx.charge_crypto(CryptoOp::Verify);
                self.on_new_view(*r, *view, *high_qc, high_batch.clone(), ctx);
            }
            HsMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, HsMsg>) {
        if kind == TimerKind::T5ViewSync && Some(id) == self.t5 {
            self.t5 = None;
            // progress stalled: move to the next view (pacemaker)
            let target = self.view.next();
            // return any current proposal's batch to the mempool
            if let Some((_, _, batch)) = self.cur.take() {
                for r in batch
                    .iter()
                    .filter(|r| !self.exec.is_executed(&r.request.id))
                {
                    enqueue_unique(&mut self.mempool, r);
                }
            }
            self.advance_view(target, ctx);
            if !self.mempool.is_empty() {
                self.arm_pacemaker(ctx);
            }
        }
    }
}

/// HotStuff client hooks: broadcast submission (the leader rotates), f+1
/// matching replies.
pub struct HsClientProto;

impl ClientProtocol for HsClientProto {
    type Msg = HsMsg;
    const SUBMIT: SubmitPolicy = SubmitPolicy::Broadcast;

    fn wrap_request(req: SignedRequest) -> HsMsg {
        HsMsg::Request(req)
    }

    fn unwrap_reply(msg: &HsMsg) -> Option<&Reply> {
        match msg {
            HsMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
}

/// Run HotStuff under a scenario.
pub fn run(scenario: &Scenario) -> RunOutcome {
    let t5 = SimDuration(scenario.network.delta.0 * 4);
    launch::<HsClientProto, _>(scenario, scenario.n(3 * scenario.f + 1), |me, q, store| {
        HotStuffReplica::new(me, q, store, t5, scenario.batch_size)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim::{FaultPlan, SafetyAuditor, SimTime};

    fn accepted(out: &RunOutcome) -> usize {
        out.log.client_latencies().len()
    }

    #[test]
    fn fault_free_run_rotates_leaders() {
        let s = Scenario::small(1).with_load(1, 30);
        let out = run(&s);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 30);
        // the leader rotates every decision: ≥ 30 views
        assert!(
            out.log.max_view() >= View(29),
            "got {:?}",
            out.log.max_view()
        );
    }

    /// Regression: a commit certificate that outruns its (delayed)
    /// proposal used to decide the slot with an empty placeholder batch,
    /// "execute" it, and drop the late proposal as history — silently
    /// skipping the slot's requests and diverging this replica's state for
    /// good. The slot must wait for its batch and execute it when it lands.
    #[test]
    fn commit_qc_ahead_of_its_proposal_waits_for_the_batch() {
        use crate::common::script::{executions, first_write, play, Script};

        let store = Scenario::small(1).key_store();
        let (signed, want) = first_write(&store);
        let batch = vec![signed.clone()];
        let (view, seq, digest) = (View(0), SeqNum(1), digest_of(&batch));
        let qc = Qc {
            phase: HsPhase::Commit,
            view,
            seq,
            digest,
        };
        // replica 0 leads view 0: its certificate arrives first, its
        // proposal 5 ms later — by then replica 1 is in view 1
        let leader = Script {
            to: 1,
            now: vec![HsMsg::QcAnnounce { qc }],
            late: vec![HsMsg::Proposal {
                view,
                seq,
                digest,
                batch,
                justify: None,
            }],
        };
        let (q, t5) = (QuorumRules { n: 4, f: 1 }, SimDuration::from_millis(40));
        let replica = HotStuffReplica::new(ReplicaId(1), q, store, t5, 1);
        let out = play(0, leader, replica);
        assert_eq!(
            executions(&out),
            vec![(NodeId::replica(1), signed.request.id, want)],
            "the slot's request executes exactly once, on the state every other replica reaches"
        );
    }

    #[test]
    fn load_is_balanced_across_replicas() {
        let s = Scenario::small(1).with_load(2, 50);
        let out = run(&s);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        // rotation spreads leader work: imbalance far below PBFT's
        let imb = out.metrics.load_imbalance();
        assert!(
            imb < 1.5,
            "rotating-leader load imbalance should be small, got {imb}"
        );
    }

    #[test]
    fn replica_crash_is_tolerated() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(2), SimTime(2_000_000)));
        let out = run(&s);
        SafetyAuditor::excluding(vec![NodeId::replica(2)]).assert_safe(&out.log);
        assert_eq!(
            accepted(&out),
            20,
            "pacemaker must skip the crashed leader's views"
        );
    }

    #[test]
    fn messages_stay_linear() {
        // message count per request grows linearly: compare n=4 and n=13
        let msgs_per_req = |f: usize| {
            let s = Scenario::small(f).with_load(1, 20);
            let out = run(&s);
            out.metrics.replica_msgs_sent() as f64 / 20.0
        };
        let m4 = msgs_per_req(1);
        let m13 = msgs_per_req(4);
        // linear: m13/m4 ≈ 13/4 ≈ 3.3; quadratic would be ≈ 10.6
        let ratio = m13 / m4;
        assert!(ratio < 5.0, "message growth must be ~linear, ratio {ratio}");
    }

    #[test]
    fn deterministic() {
        let s = Scenario::small(1).with_load(2, 10);
        let a = run(&s);
        let b = run(&s);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
    }
}
