//! HotStuff — linear, responsive BFT with a rotating leader (Yin et al. '19).
//!
//! The composition of design choices 1 and 3 on PBFT:
//!
//! * **Linearization (DC1)** — all agreement phases are star-shaped: the
//!   leader proposes, replicas send threshold-signature votes back, the
//!   leader combines them into a *quorum certificate* (QC) and broadcasts
//!   it. Three vote rounds — prepare, pre-commit, commit — give the same
//!   guarantees as PBFT's prepare/commit plus view-change safety.
//! * **Leader rotation (DC3)** — a decision ends the view: whoever sees a
//!   slot's commit QC decides it and enters the next view, whose leader
//!   proposes as soon as it has decided. Leader work is spread over every
//!   replica, and the longer pipeline is the price.
//! * **Responsiveness (E4)** — no step waits a Δ: a view that fails (τ2,
//!   4Δ, while requests are outstanding) runs the family's view change,
//!   kept linear — each vote goes only to the target view's leader, which
//!   assembles the new view from `n − f` of them by PBFT's rule.
//!
//! The replica is a member of the replica skeleton (`Core`): requests,
//! batches, the slot log, execution, checkpoints, state transfer and
//! restarts are the skeleton's stages. Safety follows the HotStuff rules:
//! replicas *lock* on a pre-commit QC and only vote for a conflicting
//! digest certified in a later view.

use std::sync::Arc;

use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, RestartMode, SimDuration, TimerId};
use bft_types::{Digest, QuorumRules, ReplicaId, Reply, SeqNum, TimerKind, View, WireSize};

use crate::client::{launch, ClientProtocol, SubmitPolicy};
use crate::common::{
    Core, Entry, Execution, PbftCert, RequestWire, Scenario, SignedRequest, Slot, Tally,
    ViewChanger, ViewMsg,
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
    /// The family's messages: the view change (votes carry prepare
    /// certificates, to the target view's leader only), checkpoints and
    /// state transfer.
    View(ViewMsg<PbftCert>),
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
            HsMsg::View(m) => m.wire_size(64, PbftCert::wire_size),
        }
    }
}

/// HotStuff's agreement state for one slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct HsSlot {
    /// The view its proposal was installed in.
    view: View,
    /// The view of the prepare QC for its digest, if one arrived: what a
    /// view-change vote reports.
    prepared: Option<View>,
    /// The pre-commit QC, the safety anchor: a replica never prepare-votes
    /// a conflicting digest for a locked slot unless it was certified in a
    /// later view — the flattened form of HotStuff's branch-extension rule.
    lock: Option<Qc>,
    /// The view of the commit QC that decided it: what a replica that lags
    /// is sent instead of running the slot's rounds again.
    decided_in: Option<View>,
    /// Leader: the votes per phase, in the view they count for.
    votes: (View, [Tally; 3]),
}

/// A HotStuff replica.
pub struct HotStuffReplica {
    core: Core<HsMsg, HsSlot, PbftCert>,
    /// Highest prepare QC seen (justifies new proposals).
    high_qc: Option<Qc>,
    /// The view whose one proposal this replica took (as leader: made).
    proposed: Option<View>,
}

impl HotStuffReplica {
    /// Create a replica with its [`Scenario::timing`].
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        timing: (SimDuration, u64),
        batch_size: usize,
    ) -> Self {
        let exec = Execution::new().skipping_executed();
        HotStuffReplica {
            core: Core::new((me, q, store), HsMsg::View, exec, timing, batch_size),
            high_qc: None,
            proposed: None,
        }
    }

    /// The commit QC that decided slot `seq` here, if it is still held.
    fn commit_qc(&self, seq: SeqNum) -> Option<Qc> {
        let slot = self.core.log.get(&seq)?;
        Some(Qc {
            phase: HsPhase::Commit,
            view: slot.ext.decided_in?,
            seq,
            digest: slot.digest?,
        })
    }

    /// As the view's leader: propose one fresh batch, justified by the
    /// high QC, and vote for it.
    fn propose(&mut self, ctx: &mut Context<'_, HsMsg>) {
        let view = self.core.gate.view();
        if !self.core.is_leader() || self.core.gate.in_view_change() || self.proposed == Some(view)
        {
            return;
        }
        self.core.drop_ordered();
        let Some((seq, digest, batch)) = self.core.cut(ctx) else {
            return;
        };
        ctx.charge_crypto(CryptoOp::Sign);
        self.proposed = Some(view);
        self.install(seq, digest, batch.clone());
        ctx.broadcast_replicas(HsMsg::Proposal {
            view,
            seq,
            digest,
            batch,
            justify: self.high_qc,
        });
        self.cast_vote(HsPhase::Prepare, seq, digest, ctx);
    }

    /// Install a proposal of the current view at slot `seq`; a prepare
    /// certificate the slot held stands only for the same digest.
    fn install(&mut self, seq: SeqNum, digest: Digest, batch: Vec<SignedRequest>) {
        self.core.mempool.remove(&batch);
        let (view, slot) = (self.core.gate.view(), self.core.log.slot(seq));
        if slot.digest != Some(digest) {
            slot.ext.prepared = None;
        }
        (slot.digest, slot.batch, slot.ext.view) = (Some(digest), Some(batch), view);
    }

    fn on_proposal(
        &mut self,
        (from, msg): (NodeId, &HsMsg),
        (view, seq, digest): (View, SeqNum, Digest),
        batch: &[SignedRequest],
        justify: Option<Qc>,
        ctx: &mut Context<'_, HsMsg>,
    ) {
        // a slot that decided ahead of this proposal (its commit QC outran
        // it) has been waiting for the batch, whatever the view now
        let log = &self.core.log;
        let awaited = log
            .get(&seq)
            .is_some_and(|s| s.digest == Some(digest) && s.batch.is_none());
        if awaited
            && self.core.decided(seq)
            && from == NodeId::Replica(view.leader_of(self.core.q.n))
        {
            ctx.charge_crypto(CryptoOp::Verify);
            ctx.charge_crypto(CryptoOp::Hash);
            if digest_of(&batch) == digest {
                self.core.log.slot(seq).batch = Some(batch.to_vec());
                self.execute(ctx);
            }
            return;
        }
        // one proposal per view (an equivocating leader cannot split
        // votes), never one into a slot that has decided here
        let admitted = self.admit_proposal(ctx, (from, view, msg), (seq, digest), &batch);
        if !admitted || self.proposed == Some(view) || self.core.decided(seq) {
            return;
        }
        // a locked slot only accepts its locked digest, or a conflicting
        // one justified by a newer prepare QC for the SAME slot
        let justified =
            |l: Qc| justify.is_some_and(|j| (j.seq, j.digest) == (seq, digest) && j.view > l.view);
        let lock = self.core.log.get(&seq).and_then(|s| s.ext.lock);
        if lock.is_some_and(|l| l.digest != digest && !justified(l)) {
            return;
        }
        self.proposed = Some(view);
        self.install(seq, digest, batch.to_vec());
        self.cast_vote(HsPhase::Prepare, seq, digest, ctx);
    }

    /// Send this replica's `phase` vote for `digest` at slot `seq` to the
    /// view's leader (the leader counts its own).
    fn cast_vote(
        &mut self,
        phase: HsPhase,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, HsMsg>,
    ) {
        ctx.charge_crypto(CryptoOp::ThresholdShareGen);
        let (view, from) = (self.core.gate.view(), self.core.me);
        if self.core.is_leader() {
            return self.record_vote(from, phase, seq, digest, ctx);
        }
        let vote = HsMsg::Vote {
            phase,
            view,
            seq,
            digest,
            from,
        };
        ctx.send(NodeId::Replica(self.core.leader()), vote);
    }

    /// As the view's leader: count `from`'s vote; `n − f` votes for the
    /// slot's digest combine into a QC, broadcast and acted on here too. A
    /// vote for a slot decided in an earlier view (a new view re-proposed
    /// it) is answered with the commit QC that decided it.
    fn record_vote(
        &mut self,
        from: ReplicaId,
        phase: HsPhase,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, HsMsg>,
    ) {
        if !self.core.is_leader() || !self.in_window(seq) {
            return;
        }
        let (view, quorum) = (self.core.gate.view(), self.core.q.n - self.core.q.f);
        if let Some(qc) = self.commit_qc(seq).filter(|qc| qc.view < view) {
            if from != self.core.me {
                ctx.send(NodeId::Replica(from), HsMsg::QcAnnounce { qc });
            }
            return;
        }
        let slot = self.core.log.slot(seq);
        if slot.ext.votes.0 != view {
            slot.ext.votes = (view, Default::default());
        }
        let tally = &mut slot.ext.votes.1[phase as usize];
        let Some(digest) = tally.vote(from, digest, slot.digest, quorum) else {
            return;
        };
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

    /// Act on a certificate: a prepare QC for the proposal held here is
    /// reported by a view change and draws the pre-commit vote; a
    /// pre-commit QC locks the slot and draws the commit vote; a commit QC
    /// decides.
    fn on_qc(&mut self, qc: Qc, ctx: &mut Context<'_, HsMsg>) {
        ctx.charge_crypto(CryptoOp::ThresholdVerify);
        let (view, seq, digest) = (qc.view, qc.seq, qc.digest);
        if qc.phase == HsPhase::Commit {
            return self.decide(qc, ctx);
        }
        let held = |s: &&mut Slot<HsSlot>| s.digest == Some(digest) && s.batch.is_some();
        let Some(slot) = self.core.log.get_mut(&seq).filter(held) else {
            return;
        };
        slot.ext.prepared = slot.ext.prepared.max(Some(view));
        if qc.phase == HsPhase::PreCommit {
            let lock = slot.ext.lock.get_or_insert(qc);
            if view >= lock.view {
                *lock = qc;
            }
            return self.cast_vote(HsPhase::Commit, seq, digest, ctx);
        }
        if self.high_qc.is_none_or(|h| view >= h.view) {
            self.high_qc = Some(qc);
        }
        self.cast_vote(HsPhase::PreCommit, seq, digest, ctx);
    }

    /// Decide the slot of a commit QC — once; a slot whose proposal has not
    /// arrived waits for its batch. The leader passes on an earlier view's
    /// QC for a slot its view re-proposed: the replicas that voted for it
    /// lag too. A decision that ends the view rotates the leader.
    fn decide(&mut self, qc: Qc, ctx: &mut Context<'_, HsMsg>) {
        let ends = self.core.ends_view((qc.view, qc.seq), |s| s.view);
        if !self.core.decided(qc.seq) {
            let (view, leads) = (self.core.gate.view(), self.core.is_leader());
            let slot = self.core.log.slot(qc.seq);
            if slot.digest != Some(qc.digest) {
                (slot.digest, slot.batch) = (Some(qc.digest), None);
            }
            slot.commit(ctx, qc.seq, qc.view, qc.digest);
            slot.ext.decided_in = Some(qc.view);
            if leads && qc.view < view && slot.ext.view == view {
                ctx.broadcast_replicas(HsMsg::QcAnnounce { qc });
            }
            self.core.next_seq = self.core.next_seq.max(qc.seq.next());
            self.execute(ctx);
        }
        if ends {
            self.rotate(qc.view.next(), ctx);
        }
    }

    /// A decision rotates the leader: enter `view` through the skeleton,
    /// hold its leader to the outstanding requests (τ2), propose as its
    /// leader, and take the messages that raced ahead of it.
    fn rotate(&mut self, view: View, ctx: &mut Context<'_, HsMsg>) {
        self.core.enter_view(view, ctx);
        if self.core.intake.has_pending() {
            self.core.intake.arm(ctx);
        }
        self.propose(ctx);
        self.replay(ctx);
    }
}

impl ViewChanger for HotStuffReplica {
    type Msg = HsMsg;
    type Ext = HsSlot;
    type Payload = PbftCert;

    fn core(&mut self) -> &mut Core<HsMsg, HsSlot, PbftCert> {
        &mut self.core
    }

    /// `n − f`, the quorum of every HotStuff certificate.
    fn new_view_quorum(q: QuorumRules) -> usize {
        q.n - q.f
    }

    /// A stuck campaign steps to the view after its own: a target's leader
    /// holds votes for views its own campaign has not reached, and jumping
    /// past them skips the view it would assemble.
    fn escalation(&mut self, work_pending: bool) -> Option<View> {
        let (core, me) = (&self.core, self.core.me);
        let at = (core.gate.view(), core.gate.in_view_change());
        core.votes.escalation_past_own(me, at, work_pending)
    }

    /// Linear (DC1): a vote goes only to the target view's leader, the one
    /// replica that counts it.
    fn send_vote(&mut self, target: View, vote: HsMsg, ctx: &mut Context<'_, HsMsg>) {
        let leader = target.leader_of(self.core.q.n);
        if leader != self.core.me {
            ctx.send(NodeId::Replica(leader), vote);
        }
    }

    /// Every slot above the stable checkpoint that holds a prepare QC,
    /// executed or not, with the QC's view: the new view's rule fills every
    /// slot nobody reports below the top with a null batch.
    fn report(&mut self, _: &mut Context<'_, HsMsg>) -> Vec<Entry<PbftCert>> {
        let above = self.core.log.range(self.core.ckpt.low_water().next()..);
        let cert = |(seq, s): (&SeqNum, &Slot<HsSlot>)| {
            Some((*seq, s.digest?, PbftCert(s.ext.prepared?, s.batch.clone()?)))
        };
        above.filter_map(cert).collect()
    }

    fn assemble(&mut self, target: View) -> Vec<Entry<PbftCert>> {
        self.core.votes.highest_certified(target)
    }

    /// The lock rule: a slot locked on another digest takes the
    /// re-proposal only if it was certified in a later view than the lock,
    /// a decided slot only its own digest. Then the prepare vote.
    fn adopt(&mut self, (seq, digest, cert): Entry<PbftCert>, ctx: &mut Context<'_, HsMsg>) {
        let PbftCert(certified, batch) = cert;
        let slot = self.core.log.slot(seq);
        let locked = slot
            .ext
            .lock
            .is_some_and(|l| l.digest != digest && certified <= l.view);
        if locked || (slot.committed && slot.digest != Some(digest)) {
            return;
        }
        let waiting = slot.committed && slot.batch.is_none();
        self.install(seq, digest, batch);
        self.cast_vote(HsPhase::Prepare, seq, digest, ctx);
        if waiting {
            self.execute(ctx);
        }
    }

    /// A slot this replica executed: send the new leader the commit QC
    /// that decided it, in case the leader lags — replicas that lag get
    /// certificates from the leader alone.
    fn confirm(&mut self, (seq, digest, _): Entry<PbftCert>, ctx: &mut Context<'_, HsMsg>) {
        let leader = self.core.leader();
        if let Some(qc) = self.commit_qc(seq).filter(|qc| qc.digest == digest) {
            if leader != self.core.me {
                ctx.send(NodeId::Replica(leader), HsMsg::QcAnnounce { qc });
            }
        }
    }

    /// Above the stable checkpoint and at most the log window beyond it.
    fn in_window(&mut self, seq: SeqNum) -> bool {
        seq > self.core.ckpt.low_water() && seq <= self.core.high_water()
    }

    fn requeue(&mut self, stranded: Vec<SignedRequest>) {
        self.core.mempool.requeue(&self.core.exec, &stranded);
    }

    fn resume(&mut self, ctx: &mut Context<'_, HsMsg>) {
        self.propose(ctx);
    }

    fn execute(&mut self, ctx: &mut Context<'_, HsMsg>) {
        self.core.execute_ready(ctx, CryptoOp::Sign, HsMsg::Reply);
    }

    /// An amnesia restart forgets the high QC and the proposal taken.
    fn forget(&mut self, amnesia: bool) {
        if amnesia {
            (self.high_qc, self.proposed) = (None, None);
        }
    }
}

impl Actor<HsMsg> for HotStuffReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, HsMsg>) {
        self.start(ctx);
    }

    fn on_recover(&mut self, mode: RestartMode, ctx: &mut Context<'_, HsMsg>) {
        self.restart(mode, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: &HsMsg, ctx: &mut Context<'_, HsMsg>) {
        match msg {
            HsMsg::Request(signed) => {
                // clients broadcast, so the leader has the request too: a
                // backup forwards nothing, only holds the leader to it
                let wire: RequestWire<HsMsg> = (Some(|r, _| HsMsg::Reply(r)), None);
                if self.core.take_request(ctx, signed, wire) {
                    self.propose(ctx);
                }
            }
            HsMsg::Proposal {
                view,
                seq,
                digest,
                batch,
                justify,
            } => self.on_proposal((from, msg), (*view, *seq, *digest), batch, *justify, ctx),
            HsMsg::Vote {
                phase,
                view,
                seq,
                digest,
                from: r,
            } => {
                if self.core.gate.admit(from, *view, msg) {
                    ctx.charge_crypto(CryptoOp::ThresholdShareVerify);
                    self.record_vote(*r, *phase, *seq, *digest, ctx);
                }
            }
            // a commit QC is taken whatever the view and from whoever
            // relays it (a threshold signature vouches for itself): a later
            // view's is the catch-up path of a replica that lags, an earlier
            // view's still decides; the other phases count in the current
            // view only, from its leader
            HsMsg::QcAnnounce { qc } => {
                let leader = NodeId::Replica(qc.view.leader_of(self.core.q.n));
                let commit = qc.phase == HsPhase::Commit;
                if commit || (from == leader && self.core.gate.admit(from, qc.view, msg)) {
                    self.on_qc(*qc, ctx);
                }
            }
            HsMsg::View(vc) => self.on_view_msg(from, vc, ctx),
            HsMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, _: TimerKind, ctx: &mut Context<'_, HsMsg>) {
        self.on_view_timer(id, ctx);
    }
}

/// HotStuff client hooks: broadcast submission (the leader rotates), f+1
/// matching replies.
pub struct HsClientProto;

impl ClientProtocol for HsClientProto {
    type Msg = HsMsg;
    type Extra = ();
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
    launch::<HsClientProto, _>(scenario, scenario.n(3 * scenario.f + 1), |me, q, store| {
        HotStuffReplica::new(me, q, store, scenario.timing(), scenario.batch_size)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim::{FaultPlan, Observation, SafetyAuditor, SimTime, Stage};

    fn accepted(out: &RunOutcome) -> usize {
        out.log.accepted()
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
        let proposal = HsMsg::Proposal {
            view,
            seq,
            digest,
            batch,
            justify: None,
        };
        let leader = Script::new(1, vec![HsMsg::QcAnnounce { qc }], vec![proposal]);
        let (q, timing) = (
            QuorumRules { n: 4, f: 1 },
            (SimDuration::from_millis(40), 16),
        );
        let replica = HotStuffReplica::new(ReplicaId(1), q, store, timing, 1);
        let (out, _) = play(vec![(0, leader)], replica);
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

    /// DC1 holds through a failed view: with r0 crashed at 4 ms, every
    /// view it leads runs the view change, whose votes go to the next
    /// leader alone and whose new view is one broadcast — so messages per
    /// request grow about linearly from n = 4 to n = 13, as on the
    /// fault-free path.
    #[test]
    fn the_view_change_stays_linear() {
        let msgs_per_req = |f: usize| {
            let crash = FaultPlan::none().crash(NodeId::replica(0), SimTime(4_000_000));
            let s = Scenario::small(f).with_load(1, 20).with_faults(crash);
            let out = run(&s);
            SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
            assert_eq!(accepted(&out), 20);
            let entered = |e: &_| {
                matches!(
                    e,
                    &Observation::StageEnter {
                        stage: Stage::ViewChange
                    }
                )
            };
            assert!(out.log.count(|e| entered(&e.obs)) > 0, "r0's views fail");
            out.metrics.replica_msgs_sent() as f64 / 20.0
        };
        let ratio = msgs_per_req(4) / msgs_per_req(1);
        assert!(ratio < 5.0, "message growth must be ~linear, ratio {ratio}");
    }

    /// A decided slot survives the view change: r0 forms slot 1's commit
    /// QC, but from that instant its links to r2 and r3 are cut (for
    /// 100 ms), so only r0 and r1 decide the slot. r2 and r3 hold it
    /// locked until a view change re-proposes it: they decide it only in
    /// the new view, on the digest r0 and r1 decided, and every replica
    /// executes its request exactly once.
    #[test]
    fn a_slot_decided_by_some_keeps_its_digest_through_the_view_change() {
        let s = Scenario::small(1).with_load(1, 10);
        // when replica r commits slot 1, and on which digest
        let commit = |out: &RunOutcome, r: u32| {
            let mine = out
                .log
                .entries
                .iter()
                .filter(|e| e.node == NodeId::replica(r));
            let mut slot_1 = mine.filter_map(|e| match e.obs {
                Observation::Commit {
                    seq: SeqNum(1),
                    digest,
                    ..
                } => Some((e.at, digest)),
                _ => None,
            });
            slot_1.next().expect("slot 1 commits")
        };
        let fault_free = run(&s);
        let (cut_at, decided) = commit(&fault_free, 0);
        let until = SimTime(cut_at.0 + 100_000_000);
        let (r0, r2, r3) = (NodeId::replica(0), NodeId::replica(2), NodeId::replica(3));
        let faults = FaultPlan::none()
            .partition(r0, r2, cut_at, until)
            .partition(r0, r3, cut_at, until);
        let out = run(&s.with_faults(faults));
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 10);
        let first_request = bft_types::RequestId {
            client: bft_types::ClientId(0),
            timestamp: 1,
        };
        for r in 0..4 {
            let (at, digest) = commit(&out, r);
            assert_eq!(digest, decided, "r{r} decides slot 1 on its digest");
            let mut mine = out
                .log
                .entries
                .iter()
                .filter(|e| e.node == NodeId::replica(r));
            let entered =
                mine.find(|e| matches!(e.obs, Observation::NewView { view } if view > View(1)));
            let after_view_change = entered.is_some_and(|e| e.at < at);
            assert_eq!(after_view_change, r >= 2, "r{r} decides slot 1 at {at:?}");
            let executions = out.log.count(|e| {
                e.node == NodeId::replica(r)
                    && matches!(e.obs, Observation::Execute { request, .. } if request == first_request)
            });
            assert_eq!(executions, 1, "r{r} executes slot 1's request once");
        }
    }

    /// The lock rule holds against an older certificate. r3 holds r0's
    /// proposal B for slot 1 with a prepare QC of view 0; view 1's new
    /// view re-proposes A, which r3 adopts and locks on (pre-commit QC of
    /// view 1). View 2's new view re-proposes B certified in view 0,
    /// earlier than the lock: r3 refuses it and sends r2 no vote for it.
    #[test]
    fn a_lock_holds_against_a_re_proposal_certified_before_it() {
        use crate::common::script::{play, rival_batches, Script};
        let store = Scenario::small(1).key_store();
        let [(a, batch_a), (b, batch_b)] = rival_batches(&store);
        let seq = SeqNum(1);
        let qc = |phase, view, digest| HsMsg::QcAnnounce {
            qc: Qc {
                phase,
                view,
                seq,
                digest,
            },
        };
        let new_view = |view, digest, cert| {
            HsMsg::View(ViewMsg::NewView {
                view,
                proposals: vec![(seq, digest, cert)],
            })
        };
        let proposal = HsMsg::Proposal {
            view: View(0),
            seq,
            digest: b,
            batch: batch_b.clone(),
            justify: None,
        };
        let r0 = Script::new(3, vec![proposal], vec![qc(HsPhase::Prepare, View(0), b)]);
        let r1 = Script {
            to: 3,
            rounds: vec![
                vec![],
                vec![],
                vec![new_view(View(1), a, PbftCert(View(0), batch_a))],
                vec![
                    qc(HsPhase::Prepare, View(1), a),
                    qc(HsPhase::PreCommit, View(1), a),
                ],
            ],
        };
        let older = new_view(View(2), b, PbftCert(View(0), batch_b));
        let r2 = Script {
            to: 3,
            rounds: vec![vec![], vec![], vec![], vec![], vec![older]],
        };
        let (q, timing) = (
            QuorumRules { n: 4, f: 1 },
            (SimDuration::from_millis(40), 16),
        );
        let replica = HotStuffReplica::new(ReplicaId(3), q, store, timing, 1);
        let (_, sent) = play(vec![(0, r0), (1, r1), (2, r2)], replica);
        let voted = |phase, view, digest| {
            let vote = |m: &&HsMsg| matches!(m, HsMsg::Vote { phase: p, view: v, digest: d, .. } if (*p, *v, *d) == (phase, view, digest));
            sent.iter().any(|m| vote(&m))
        };
        assert!(
            voted(HsPhase::Commit, View(1), a),
            "r3 locked on A in view 1"
        );
        assert!(
            !voted(HsPhase::Prepare, View(2), b),
            "r3 refuses B, certified in view 0"
        );
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
