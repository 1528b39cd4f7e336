//! Tendermint-style consensus (Buchman, Kwon; design choice 4).
//!
//! The *non-responsive leader rotation* point of the design space: the
//! proposer rotates on every decision **without** the extra ordering phase
//! HotStuff adds. Instead, a new proposer assumes synchrony and waits the
//! known bound **Δ** (timer τ5) before proposing, so that it is guaranteed
//! to have heard the precommits of slow-but-correct replicas from the
//! previous height. This sacrifices *responsiveness* (dimension E4): commit
//! latency is `Δ + O(δ)` rather than `O(δ)`.
//!
//! The **informed-leader optimization** (attributed to HotStuff-2 in the
//! paper) restores responsiveness opportunistically: a proposer that itself
//! received 2f+1 precommits for the previous height already knows the
//! decided value and proposes immediately.
//!
//! The replica is a member of the replica skeleton (`Core`): heights are
//! slots, and requests, batches, the slot log, execution, checkpoints,
//! state transfer and restarts are the skeleton's stages. Per view:
//! `propose` (linear) → `prevote` (quadratic, 2f+1 lock the slot) →
//! `precommit` (quadratic, 2f+1 decide). A decision enters the next view,
//! led by the next replica; a stalled view (τ2, 4Δ, while requests are
//! outstanding: it replaces the round timer τ4) runs the family's view
//! change with PBFT's rule, and a locked slot takes a re-proposal only if
//! it was certified later.

use std::sync::Arc;

use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, Observation, RestartMode, SimDuration, TimerId};
use bft_types::{Digest, QuorumRules, ReplicaId, Reply, SeqNum, TimerKind, View, WireSize};

use crate::client::{launch, ClientProtocol, SubmitPolicy};
use crate::common::{
    Core, Entry, Execution, PbftCert, RequestWire, Scenario, SignedRequest, Slot, Tally,
    ViewChanger, ViewMsg,
};

/// Vote kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize)]
pub enum VoteKind {
    /// First all-to-all round.
    Prevote,
    /// Second all-to-all round.
    Precommit,
}

/// Tendermint messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum TmMsg {
    /// Client → replicas (broadcast).
    Request(SignedRequest),
    /// Replica → client.
    Reply(Reply),
    /// Proposer → all.
    Proposal {
        /// Height: the slot it fills.
        height: SeqNum,
        /// Round: the view, whose leader proposes.
        round: u64,
        /// Batch digest.
        digest: Digest,
        /// The batch.
        batch: Vec<SignedRequest>,
    },
    /// All-to-all vote.
    Vote {
        /// Prevote or precommit.
        kind: VoteKind,
        /// Height.
        height: SeqNum,
        /// Round (view).
        round: u64,
        /// Voted digest.
        digest: Digest,
        /// Voter.
        from: ReplicaId,
    },
    /// The family's messages: the view change (votes carry locks as
    /// prepare certificates), checkpoints and state transfer.
    View(ViewMsg<PbftCert>),
}

impl WireSize for TmMsg {
    fn wire_size(&self) -> usize {
        match self {
            TmMsg::Request(r) => 1 + r.wire_size(),
            TmMsg::Reply(r) => 1 + r.wire_size(),
            TmMsg::Proposal { batch, .. } => 1 + 8 + 8 + 32 + batch.wire_size() + 72,
            TmMsg::Vote { .. } => 1 + 1 + 8 + 8 + 32 + 72,
            TmMsg::View(m) => m.wire_size(64, PbftCert::wire_size),
        }
    }
}

/// Tendermint's agreement state for one slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct TmSlot {
    /// The view its proposal was installed in.
    view: View,
    /// The view in which 2f+1 prevotes for its digest arrived here: the
    /// lock, which a view-change vote reports as a prepare certificate.
    locked: Option<View>,
    /// Prevotes and precommits, in the latest view they were cast in.
    votes: (View, [Tally; 2]),
}

/// A Tendermint replica.
pub struct TendermintReplica {
    core: Core<TmMsg, TmSlot, PbftCert>,
    /// The view whose one proposal this replica took (as proposer: made).
    proposed: Option<View>,
    /// Enable the informed-leader optimization.
    opt_informed: bool,
    /// The Δ-wait before proposing (τ5) and its span.
    propose_timer: Option<TimerId>,
    delta: SimDuration,
}

impl TendermintReplica {
    /// Create a replica waiting `delta` before it proposes, holding a view
    /// to the family's τ2 (4Δ) and checkpointing every `interval` slots.
    /// `opt_informed` enables the informed-leader optimization.
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        (delta, interval): (SimDuration, u64),
        opt_informed: bool,
        batch_size: usize,
    ) -> Self {
        let (exec, timing) = (
            Execution::new().skipping_executed(),
            (SimDuration(delta.0 * 4), interval),
        );
        TendermintReplica {
            core: Core::new((me, q, store), TmMsg::View, exec, timing, batch_size),
            proposed: None,
            opt_informed,
            propose_timer: None,
            delta,
        }
    }

    /// As the view's proposer with requests queued: propose at once when
    /// the optimization is on and this replica decided the slot before the
    /// one it proposes (it is informed: height 1 has no predecessor), else
    /// after the Δ-wait (τ5).
    fn schedule_propose(&mut self, ctx: &mut Context<'_, TmMsg>) {
        if !self.may_propose() || self.propose_timer.is_some() || self.core.mempool.is_empty() {
            return;
        }
        if self.opt_informed && self.core.decided(self.core.next_seq.prev()) {
            // informed-leader optimization: we know the previous height's
            // decision ourselves — no Δ-wait needed
            ctx.observe(Observation::Marker {
                label: "informed-skip-delta",
            });
            self.propose(ctx);
        } else {
            // non-responsive: wait the full synchrony bound Δ so slow
            // correct replicas' decisions are surely known (τ5)
            ctx.observe(Observation::Marker {
                label: "delta-wait",
            });
            self.propose_timer = Some(ctx.set_timer(TimerKind::T5ViewSync, self.delta));
        }
    }

    /// Stop a Δ-wait still running (its view is over).
    fn stop_wait(&mut self, ctx: &mut Context<'_, TmMsg>) {
        if let Some(t) = self.propose_timer.take() {
            ctx.cancel_timer(t);
        }
    }

    /// Whether this replica leads the current view, outside a view change,
    /// and has not proposed in it yet.
    fn may_propose(&self) -> bool {
        let view = self.core.gate.view();
        self.core.is_leader() && !self.core.gate.in_view_change() && self.proposed != Some(view)
    }

    /// As the view's proposer: propose one fresh batch and prevote it.
    fn propose(&mut self, ctx: &mut Context<'_, TmMsg>) {
        if !self.may_propose() {
            return;
        }
        let view = self.core.gate.view();
        self.core.drop_ordered();
        let Some((seq, digest, batch)) = self.core.cut(ctx) else {
            return;
        };
        ctx.charge_crypto(CryptoOp::Sign);
        self.proposed = Some(view);
        self.install(view, seq, digest, batch.clone());
        ctx.broadcast_replicas(TmMsg::Proposal {
            height: seq,
            round: view.0,
            digest,
            batch,
        });
        self.cast(VoteKind::Prevote, seq, digest, ctx);
    }

    /// Install a proposal of `view` at slot `seq`; a lock the slot held
    /// stands only for the same digest.
    fn install(&mut self, view: View, seq: SeqNum, digest: Digest, batch: Vec<SignedRequest>) {
        self.core.mempool.remove(&batch);
        let slot = self.core.log.slot(seq);
        if slot.digest != Some(digest) {
            slot.ext.locked = None;
        }
        (slot.digest, slot.batch, slot.ext.view) = (Some(digest), Some(batch), view);
    }

    fn on_proposal(
        &mut self,
        (from, msg): (NodeId, &TmMsg),
        (view, seq, digest): (View, SeqNum, Digest),
        batch: &[SignedRequest],
        ctx: &mut Context<'_, TmMsg>,
    ) {
        // a proposal this replica can no longer vote for still brings a
        // batch its slot lacks: a precommit quorum decides a slot whatever
        // the view, and one that outran its proposal waits for the batch
        if view < self.core.gate.view() || self.core.decided(seq) {
            let bare = |s: &Slot<TmSlot>| s.batch.is_none() && s.digest.is_none_or(|d| d == digest);
            if self.in_window(seq) && self.core.log.get(&seq).is_none_or(bare) {
                ctx.charge_crypto(CryptoOp::Verify);
                ctx.charge_crypto(CryptoOp::Hash);
                if digest_of(&batch) == digest {
                    self.install(view, seq, digest, batch.to_vec());
                    self.execute(ctx);
                }
            }
            return;
        }
        // one proposal per view: an equivocating proposer cannot split votes
        let admitted = self.admit_proposal(ctx, (from, view, msg), (seq, digest), &batch);
        if admitted && self.proposed != Some(view) {
            self.proposed = Some(view);
            self.install(view, seq, digest, batch.to_vec());
            self.cast(VoteKind::Prevote, seq, digest, ctx);
        }
    }

    /// Broadcast this replica's `kind` vote for `digest` at slot `seq` in
    /// the current view, and count it.
    fn cast(&mut self, kind: VoteKind, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, TmMsg>) {
        ctx.charge_crypto(CryptoOp::Sign);
        let (view, from) = (self.core.gate.view(), self.core.me);
        ctx.broadcast_replicas(TmMsg::Vote {
            kind,
            height: seq,
            round: view.0,
            digest,
            from,
        });
        self.count(from, kind, (view, seq), digest, ctx);
    }

    /// Count `from`'s `kind` vote for `digest` at slot `seq` in `view`:
    /// 2f+1 prevotes for the proposal installed in that view lock the slot
    /// and draw this replica's precommit; 2f+1 precommits decide it.
    fn count(
        &mut self,
        from: ReplicaId,
        kind: VoteKind,
        (view, seq): (View, SeqNum),
        digest: Digest,
        ctx: &mut Context<'_, TmMsg>,
    ) {
        if !self.in_window(seq) {
            return;
        }
        let (quorum, slot) = (self.core.q.quorum(), self.core.log.slot(seq));
        if view != slot.ext.votes.0 {
            if view < slot.ext.votes.0 {
                return;
            }
            slot.ext.votes = (view, Default::default());
        }
        // a precommit quorum stands for its own digest, a prevote quorum
        // only for the proposal installed in its view
        let installed = match kind {
            VoteKind::Prevote => slot.digest.filter(|_| slot.ext.view == view),
            VoteKind::Precommit => Some(digest),
        };
        let tally = &mut slot.ext.votes.1[kind as usize];
        let Some(digest) = tally.vote(from, digest, installed, quorum) else {
            return;
        };
        if kind == VoteKind::Precommit {
            return self.decide(view, seq, digest, ctx);
        }
        slot.ext.locked = Some(view);
        self.cast(VoteKind::Precommit, seq, digest, ctx);
    }

    /// Decide slot `seq` on `digest` by 2f+1 precommits of `view` — once; a
    /// slot whose proposal has not arrived waits for its batch. A later
    /// view's quorum is the catch-up path of a replica that lags: it enters
    /// that view first, so what the gate held for it lands. A decision that
    /// ends the view rotates the proposer.
    fn decide(&mut self, view: View, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, TmMsg>) {
        if view > self.core.gate.view() {
            self.core.enter_view(view, ctx);
            self.replay(ctx);
        }
        let ends = self.core.ends_view((view, seq), |s| s.view);
        if !self.core.decided(seq) {
            let slot = self.core.log.slot(seq);
            if slot.digest != Some(digest) {
                (slot.digest, slot.batch) = (Some(digest), None);
            }
            slot.commit(ctx, seq, view, digest);
            self.core.next_seq = self.core.next_seq.max(seq.next());
            self.execute(ctx);
        }
        if ends {
            self.rotate(view.next(), ctx);
        }
    }

    /// A decision rotates the proposer: enter `view` through the skeleton,
    /// hold its proposer to the outstanding requests (τ2), propose as its
    /// proposer, and take the messages that raced ahead of it.
    fn rotate(&mut self, view: View, ctx: &mut Context<'_, TmMsg>) {
        self.core.enter_view(view, ctx);
        if self.core.intake.has_pending() {
            self.core.intake.arm(ctx);
        }
        self.stop_wait(ctx);
        self.schedule_propose(ctx);
        self.replay(ctx);
    }
}

impl ViewChanger for TendermintReplica {
    type Msg = TmMsg;
    type Ext = TmSlot;
    type Payload = PbftCert;

    fn core(&mut self) -> &mut Core<TmMsg, TmSlot, PbftCert> {
        &mut self.core
    }

    /// A stuck campaign steps to the view after its own: each replica arms
    /// τ2 at its own decision, so campaigns start apart, and jumping past
    /// every view voted for would leapfrog the later campaigners for good.
    fn escalation(&mut self, work_pending: bool) -> Option<View> {
        let (core, me) = (&self.core, self.core.me);
        let at = (core.gate.view(), core.gate.in_view_change());
        core.votes.escalation_past_own(me, at, work_pending)
    }

    /// Every slot above the stable checkpoint locked here, executed or not,
    /// with the view of its lock.
    fn report(&mut self, _: &mut Context<'_, TmMsg>) -> Vec<Entry<PbftCert>> {
        let above = self.core.log.range(self.core.ckpt.low_water().next()..);
        let cert = |(seq, s): (&SeqNum, &Slot<TmSlot>)| {
            Some((*seq, s.digest?, PbftCert(s.ext.locked?, s.batch.clone()?)))
        };
        above.filter_map(cert).collect()
    }

    fn assemble(&mut self, target: View) -> Vec<Entry<PbftCert>> {
        self.core.votes.highest_certified(target)
    }

    /// The lock rule: a slot locked on another digest takes the
    /// re-proposal only if it was certified in a later view than the lock,
    /// a decided slot only its own digest. Then the prevote.
    fn adopt(&mut self, (seq, digest, cert): Entry<PbftCert>, ctx: &mut Context<'_, TmMsg>) {
        let (PbftCert(certified, batch), view) = (cert, self.core.gate.view());
        let slot = self.core.log.slot(seq);
        let locked = slot.ext.locked.is_some_and(|l| certified <= l);
        if slot.digest != Some(digest) && (locked || slot.committed) {
            return;
        }
        let waiting = slot.committed && slot.batch.is_none();
        self.install(view, seq, digest, batch);
        self.cast(VoteKind::Prevote, seq, digest, ctx);
        if waiting {
            self.execute(ctx);
        }
    }

    /// A re-proposal this replica executed: prevote and precommit it again
    /// in the new view, so the replicas that lag reach a quorum for it —
    /// the digest it decided is the only one the slot can decide on.
    fn confirm(&mut self, (seq, digest, _): Entry<PbftCert>, ctx: &mut Context<'_, TmMsg>) {
        let executed = self.core.log.get(&seq).and_then(|s| s.digest);
        if executed == Some(digest) {
            self.cast(VoteKind::Prevote, seq, digest, ctx);
            self.cast(VoteKind::Precommit, seq, digest, ctx);
        }
    }

    /// Above the stable checkpoint and at most the log window beyond it.
    fn in_window(&mut self, seq: SeqNum) -> bool {
        seq > self.core.ckpt.low_water() && seq <= self.core.high_water()
    }

    fn requeue(&mut self, stranded: Vec<SignedRequest>) {
        self.core.mempool.requeue(&self.core.exec, &stranded);
    }

    /// The proposer of a view the view change installed proposes past the
    /// re-proposals (informed only if it decided the slot before).
    fn resume(&mut self, ctx: &mut Context<'_, TmMsg>) {
        self.stop_wait(ctx);
        self.schedule_propose(ctx);
    }

    fn execute(&mut self, ctx: &mut Context<'_, TmMsg>) {
        self.core.execute_ready(ctx, CryptoOp::Sign, TmMsg::Reply);
    }

    /// The Δ-wait died with the crash; an amnesia restart also forgets the
    /// proposal taken.
    fn forget(&mut self, amnesia: bool) {
        self.propose_timer = None;
        if amnesia {
            self.proposed = None;
        }
    }
}

impl Actor<TmMsg> for TendermintReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, TmMsg>) {
        self.start(ctx);
    }

    fn on_recover(&mut self, mode: RestartMode, ctx: &mut Context<'_, TmMsg>) {
        self.restart(mode, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: &TmMsg, ctx: &mut Context<'_, TmMsg>) {
        match msg {
            TmMsg::Request(signed) => {
                // clients broadcast, so the proposer has the request too: a
                // backup only holds the proposer to it
                let wire: RequestWire<TmMsg> = (Some(|r, _| TmMsg::Reply(r)), None);
                if self.core.take_request(ctx, signed, wire) {
                    self.schedule_propose(ctx);
                }
            }
            TmMsg::Proposal {
                height,
                round,
                digest,
                batch,
            } => {
                let at = (View(*round), *height, *digest);
                self.on_proposal((from, msg), at, batch, ctx);
            }
            // a precommit counts whatever the view (a later view's quorum is
            // the catch-up path), a prevote in the current view only
            TmMsg::Vote {
                kind,
                height,
                round,
                digest,
                from: r,
            } => {
                let view = View(*round);
                if *kind == VoteKind::Precommit || self.core.gate.admit(from, view, msg) {
                    ctx.charge_crypto(CryptoOp::Verify);
                    self.count(*r, *kind, (view, *height), *digest, ctx);
                }
            }
            TmMsg::View(vc) => self.on_view_msg(from, vc, ctx),
            TmMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, TmMsg>) {
        if kind == TimerKind::T5ViewSync && self.propose_timer == Some(id) {
            self.propose_timer = None;
            return self.propose(ctx);
        }
        self.on_view_timer(id, ctx);
    }
}

/// Tendermint client hooks.
pub struct TmClientProto;

impl ClientProtocol for TmClientProto {
    type Msg = TmMsg;
    type Extra = ();
    const SUBMIT: SubmitPolicy = SubmitPolicy::Broadcast;

    fn wrap_request(req: SignedRequest) -> TmMsg {
        TmMsg::Request(req)
    }

    fn unwrap_reply(msg: &TmMsg) -> Option<&Reply> {
        match msg {
            TmMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
}

/// Run Tendermint. `informed_leader_opt` enables the responsive
/// optimization the paper attributes to HotStuff-2.
pub fn run(scenario: &Scenario, informed_leader_opt: bool) -> RunOutcome {
    let timing = (scenario.network.delta, scenario.checkpoint_interval);
    launch::<TmClientProto, _>(scenario, scenario.n(3 * scenario.f + 1), |me, q, store| {
        let batch = scenario.batch_size;
        TendermintReplica::new(me, q, store, timing, informed_leader_opt, batch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim::{FaultPlan, SafetyAuditor, SimTime};

    fn accepted(out: &RunOutcome) -> usize {
        out.log.accepted()
    }

    fn mean_latency(out: &RunOutcome) -> f64 {
        let l = out.log.client_latencies();
        l.iter().map(|(_, d)| d.as_millis_f64()).sum::<f64>() / l.len() as f64
    }

    /// Regression: a precommit quorum that outruns its (delayed) proposal
    /// used to decide the height on an empty placeholder batch, "execute"
    /// it and move on, dropping the late proposal as a stale height — the
    /// height's requests were skipped and this replica's state diverged.
    /// The height must wait for its batch and execute it when it lands.
    #[test]
    fn precommit_quorum_ahead_of_its_proposal_waits_for_the_batch() {
        use crate::common::script::{executions, first_write, play, Script};

        let store = Scenario::small(1).key_store();
        let (signed, want) = first_write(&store);
        let batch = vec![signed.clone()];
        let (height, round, digest) = (SeqNum(1), 0, digest_of(&batch));
        let precommit = |from| TmMsg::Vote {
            kind: VoteKind::Precommit,
            height,
            round,
            digest,
            from: ReplicaId(from),
        };
        // replica 1 proposes height 1: 2f+1 precommits reach replica 2
        // first, the proposal itself 5 ms later
        let proposal = TmMsg::Proposal {
            height,
            round,
            digest,
            batch,
        };
        let now = vec![precommit(0), precommit(1), precommit(3)];
        let proposer = Script::new(2, now, vec![proposal]);
        let (q, delta) = (QuorumRules { n: 4, f: 1 }, SimDuration::from_millis(10));
        let replica = TendermintReplica::new(ReplicaId(2), q, store, (delta, 16), false, 1);
        let (out, _) = play(vec![(1, proposer)], replica);
        assert_eq!(
            executions(&out),
            vec![(NodeId::replica(2), signed.request.id, want)],
            "the height's request executes exactly once, on the state every other replica reaches"
        );
    }

    /// The case the old ahead-of-height buffer existed for: an informed
    /// proposer runs a height ahead (routinely, on threads), so view 1's
    /// proposal for slot 2, its prevotes and two of its precommits reach r3
    /// before slot 1 decides there. The gate holds the proposal and the
    /// prevotes; deciding slot 1 enters view 1, whose replay has r3 prevote,
    /// precommit and decide slot 2 at once: both slots execute within 6 ms
    /// of the start, before any Δ-wait (10 ms) or τ2 (40 ms) could end.
    #[test]
    fn next_view_traffic_ahead_of_the_decision_is_replayed_on_entry() {
        use crate::common::script::{play, rival_batches, Script};

        let store = Scenario::small(1).key_store();
        let [(a, batch_a), (b, batch_b)] = rival_batches(&store);
        let request = |batch: &[SignedRequest]| batch[0].request.id;
        let (want_a, want_b) = (request(&batch_a), request(&batch_b));
        let vote = |kind, (height, round, digest), from| TmMsg::Vote {
            kind,
            height: SeqNum(height),
            round,
            digest,
            from: ReplicaId(from),
        };
        let (slot_1, slot_2) = ((1, 0, a), (2, 1, b));
        // r1 leads view 1: its proposal for slot 2 and the view's votes
        // arrive at once, slot 1's traffic from r0 (view 0) 5 ms later
        let mut ahead = vec![TmMsg::Proposal {
            height: SeqNum(2),
            round: 1,
            digest: b,
            batch: batch_b,
        }];
        ahead.extend((0..3).map(|r| vote(VoteKind::Prevote, slot_2, r)));
        ahead.extend((0..2).map(|r| vote(VoteKind::Precommit, slot_2, r)));
        let mut current = vec![TmMsg::Proposal {
            height: SeqNum(1),
            round: 0,
            digest: a,
            batch: batch_a,
        }];
        current.extend((0..3).map(|r| vote(VoteKind::Prevote, slot_1, r)));
        current.extend((0..3).map(|r| vote(VoteKind::Precommit, slot_1, r)));
        let r0 = Script::new(3, vec![], current);
        let r1 = Script::new(3, ahead, vec![]);
        let (q, delta) = (QuorumRules { n: 4, f: 1 }, SimDuration::from_millis(10));
        let replica = TendermintReplica::new(ReplicaId(3), q, store, (delta, 16), false, 1);
        let (out, sent) = play(vec![(0, r0), (1, r1)], replica);
        let executed: Vec<_> = out
            .log
            .entries
            .iter()
            .filter_map(|e| match e.obs {
                Observation::Execute { request, .. } => Some((e.at, request)),
                _ => None,
            })
            .collect();
        let ids: Vec<_> = executed.iter().map(|(_, id)| *id).collect();
        assert_eq!(ids, vec![want_a, want_b], "slot 1, then slot 2");
        assert!(
            executed.iter().all(|(at, _)| *at < SimTime(6_000_000)),
            "both slots decide without a timeout: {executed:?}"
        );
        let precommitted = |m: &TmMsg| {
            matches!(
                m,
                TmMsg::Vote {
                    kind: VoteKind::Precommit,
                    height: SeqNum(2),
                    round: 1,
                    ..
                }
            )
        };
        assert!(
            sent.iter().any(precommitted),
            "r3 precommits slot 2 in view 1"
        );
    }

    /// An amnesia restart past a stable checkpoint: r3 is down for the
    /// middle third of the run and comes back with only its stable
    /// checkpoint (interval 16), while its peers have taken a later one. It
    /// rejoins their view and catches up by state transfer. The run's 90
    /// requests end past its last checkpoint, so r3 executes the tail
    /// itself and ends at the others' state. Every request is accepted, and
    /// safely — with and without the informed-leader optimization.
    #[test]
    fn an_amnesia_restart_past_a_stable_checkpoint_rejoins_by_state_transfer() {
        use crate::common::script::final_readings;

        let s = Scenario::small(1).with_load(2, 45);
        let timing = (s.network.delta, s.checkpoint_interval);
        let state = |r: &mut TendermintReplica| r.core.exec.sm().digest();
        for informed in [false, true] {
            let replica = |me, q, store| TendermintReplica::new(me, q, store, timing, informed, 1);
            let (fault_free, _) = final_readings::<TmClientProto, _, _>(&s, 4, replica, state);
            let mut entries = fault_free.log.entries.iter().rev();
            let last = entries.find(|e| matches!(e.obs, Observation::Execute { .. }));
            let third = last.expect("the run executes").at.0 / 3;
            let (down, up) = (third, 2 * third);
            let victim = NodeId::replica(3);
            let faults =
                FaultPlan::none().crash_recover_amnesia(victim, SimTime(down), SimTime(up));
            let s = s.clone().with_faults(faults);
            let (out, finals) = final_readings::<TmClientProto, _, _>(&s, 4, replica, state);
            SafetyAuditor::all_correct().assert_safe(&out.log);
            assert_eq!(accepted(&out), 90, "informed: {informed}");
            assert_eq!(out.log.marker_count("amnesia-restart"), 1);
            let stable_before = out.log.entries.iter().any(|e| {
                e.node == victim
                    && e.at.0 < down
                    && matches!(e.obs, Observation::StableCheckpoint { .. })
            });
            assert!(stable_before, "r3 crashes past a stable checkpoint");
            assert!(out.log.marker_count("state-transferred") > 0);
            assert_eq!(finals[&ReplicaId(3)], finals[&ReplicaId(0)]);
        }
    }

    #[test]
    fn fault_free_progress() {
        let s = Scenario::small(1).with_load(1, 20);
        let out = run(&s, false);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 20);
        assert!(
            out.log.marker_count("delta-wait") >= 19,
            "every height waits Δ"
        );
    }

    #[test]
    fn informed_leader_optimization_skips_delta() {
        let s = Scenario::small(1).with_load(1, 20);
        let plain = run(&s, false);
        let opt = run(&s, true);
        assert_eq!(accepted(&opt), 20);
        assert!(opt.log.marker_count("informed-skip-delta") >= 19);
        // the Δ-wait dominates latency: the optimization must be much faster
        assert!(
            mean_latency(&plain) > 2.0 * mean_latency(&opt),
            "Δ-wait {} ms vs informed {} ms",
            mean_latency(&plain),
            mean_latency(&opt)
        );
    }

    #[test]
    fn latency_tracks_delta_not_network_delay() {
        // E4: non-responsive latency is governed by Δ even when the actual
        // network delay δ is tiny
        let fast_net = Scenario::small(1).with_load(1, 10);
        let out = run(&fast_net, false);
        let delta_ms = fast_net.network.delta.as_millis_f64();
        assert!(
            mean_latency(&out) >= delta_ms,
            "each decision must pay Δ = {delta_ms} ms; got {} ms",
            mean_latency(&out)
        );
    }

    #[test]
    fn proposer_crash_rotates_round() {
        let s = Scenario::small(1)
            .with_load(1, 10)
            .with_faults(FaultPlan::none().crash(NodeId::replica(2), SimTime(1_000_000)));
        let out = run(&s, false);
        SafetyAuditor::excluding(vec![NodeId::replica(2)]).assert_safe(&out.log);
        assert_eq!(
            accepted(&out),
            10,
            "the view change must skip the crashed proposer"
        );
    }

    #[test]
    fn deterministic() {
        let s = Scenario::small(1).with_load(1, 10);
        let a = run(&s, false);
        let b = run(&s, false);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
    }
}
