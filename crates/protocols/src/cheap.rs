//! CheapBFT-style resource-efficient BFT (Kapitza et al. '12): design
//! choice 5, *optimistic replica reduction*.
//!
//! In the optimistic view 0, **`2f+1` actives** order requests and one round
//! among *all* of them commits (assumption a2); the `f` **passives** apply
//! what `f+1` matching updates vouch for. A stalled round (τ3) or relayed
//! request (τ2) starts the shared view change to the fallback: all `n`
//! active, a rotating leader and PBFT's rounds with 2f+1 quorums — the
//! saved resources traded back for resilience (dimension E1/P1).

use std::sync::Arc;

use bft_crypto::{CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, Observation, RestartMode, SimDuration, TimerId};
use bft_types::{Digest, QuorumRules, ReplicaId, Reply, SeqNum, TimerKind, View, WireSize};

use crate::client::{launch, ClientProtocol, SubmitPolicy};
use crate::common::{
    reply_to_client, Core, Entry, Execution, PbftCert, RequestWire, RoundRules, Rounds, Scenario,
    SignedRequest, Slot, Tally, ViewChanger, ViewMsg,
};

/// CheapBFT messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum CheapMsg {
    /// Client → leader.
    Request(SignedRequest),
    /// Replica → client.
    Reply(Reply),
    /// Leader → the other actives (from view 1 on: every replica).
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
    /// View 0: active → actives, the one agreement vote. From view 1 on:
    /// the prepare.
    Agree {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Voter.
        from: ReplicaId,
    },
    /// From view 1 on: the commit.
    Confirm {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Voter.
        from: ReplicaId,
    },
    /// View 0: active → passive, an executed batch.
    Update {
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Batch.
        batch: Vec<SignedRequest>,
        /// Sender.
        from: ReplicaId,
    },
    /// The family's messages: the view change to the fallback (votes carry
    /// certificates), checkpoints and state transfer.
    View(ViewMsg<PbftCert>),
}

impl WireSize for CheapMsg {
    fn wire_size(&self) -> usize {
        match self {
            CheapMsg::Request(r) => 1 + r.wire_size(),
            CheapMsg::Reply(r) => 1 + r.wire_size(),
            CheapMsg::PrePrepare { batch, .. } => 1 + 4 + 8 + 32 + batch.wire_size() + 64,
            CheapMsg::Agree { .. } | CheapMsg::Confirm { .. } => 1 + 4 + 8 + 32 + 4 + 64,
            CheapMsg::Update { batch, .. } => 1 + 8 + 32 + batch.wire_size() + 4 + 32,
            CheapMsg::View(m) => m.wire_size(64, PbftCert::wire_size),
        }
    }
}

/// CheapBFT's agreement state for one slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct CheapSlot {
    /// The view of the proposal.
    view: View,
    /// View 0: the actives' agreement.
    agrees: Tally,
    /// From view 1 on: prepares, then commits.
    rounds: Rounds,
    /// View 0: τ3 on the agreement (leader only).
    t3: Option<TimerId>,
    /// Passive: the actives' updates vouching for the batch.
    updates: Tally,
}

/// A CheapBFT replica.
pub struct CheapReplica {
    core: Core<CheapMsg, CheapSlot, PbftCert>,
    /// From view 1 on: 2f agrees besides the pre-prepare, 2f+1 confirms.
    rounds: RoundRules<CheapMsg, CheapSlot>,
    t3_timeout: SimDuration,
}

impl CheapReplica {
    /// Create a replica with its [`Scenario::timing`] and τ3.
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        timing: (SimDuration, u64),
        t3_timeout: SimDuration,
        batch_size: usize,
    ) -> Self {
        let rounds = RoundRules {
            me,
            ext: |slot: &mut CheapSlot| &mut slot.rounds,
            prepare_quorum: 2 * q.f,
            commit_quorum: q.quorum(),
            auth: (CryptoOp::Sign, 1),
            prepare: |view, seq, digest, from| CheapMsg::Agree {
                view,
                seq,
                digest,
                from,
            },
            commit: |view, seq, digest, from| CheapMsg::Confirm {
                view,
                seq,
                digest,
                from,
            },
        };
        let exec = Execution::new();
        CheapReplica {
            core: Core::new((me, q, store), CheapMsg::View, exec, timing, batch_size),
            rounds,
            t3_timeout,
        }
    }

    /// Replicas `0 .. actives()` are active: 2f+1 in the optimistic view 0,
    /// every replica in the fallback views.
    fn actives(&self) -> u32 {
        let (q, optimistic) = (self.core.q, self.core.gate.view() == View(0));
        (if optimistic { 2 * q.f + 1 } else { q.n }) as u32
    }

    fn is_active(&self) -> bool {
        self.core.me.0 < self.actives()
    }

    /// The active replicas other than this one.
    fn other_actives(&self) -> Vec<NodeId> {
        let others = (0..self.actives()).filter(|r| *r != self.core.me.0);
        others.map(NodeId::replica).collect()
    }

    fn propose(&mut self, ctx: &mut Context<'_, CheapMsg>) {
        if !self.core.is_leader() || self.core.gate.in_view_change() {
            return;
        }
        self.core.drop_ordered();
        while let Some((seq, digest, batch)) = self.core.cut(ctx) {
            ctx.charge_crypto(CryptoOp::Sign);
            let view = self.core.gate.view();
            let slot = self.core.log.slot(seq);
            (slot.digest, slot.batch, slot.ext.view) = (Some(digest), Some(batch.clone()), view);
            let msg = CheapMsg::PrePrepare {
                view,
                seq,
                digest,
                batch,
            };
            if view > View(0) {
                ctx.broadcast_replicas(msg);
                continue;
            }
            ctx.multicast(self.other_actives(), msg);
            // arm τ3: if the agreement round stalls, transition
            let t3 = ctx.set_timer(TimerKind::T3BackupFailure, self.t3_timeout);
            self.core.log.slot(seq).ext.t3 = Some(t3);
            self.agree(seq, digest, ctx);
        }
    }

    fn on_pre_prepare(
        &mut self,
        (from, msg): (NodeId, &CheapMsg),
        (view, seq, digest): (View, SeqNum, Digest),
        batch: &[SignedRequest],
        ctx: &mut Context<'_, CheapMsg>,
    ) {
        let admitted = self.admit_proposal(ctx, (from, view, msg), (seq, digest), &batch);
        if !admitted || !self.is_active() {
            return;
        }
        self.core.mempool.remove(batch);
        if view == View(0) {
            // the first proposal for a slot stands
            if self.core.log.install(seq, digest, batch.to_vec()) {
                self.agree(seq, digest, ctx);
            }
            return;
        }
        let slot = self.core.log.slot(seq);
        if slot.digest.is_some() && slot.ext.view == view {
            return; // one proposal per slot and view
        }
        (slot.digest, slot.batch, slot.ext.view) = (Some(digest), Some(batch.to_vec()), view);
        if self.rounds.prepare(ctx, slot, (view, seq), digest, None) {
            self.execute(ctx);
        }
    }

    /// View 0: agree to slot `seq` with the other actives.
    fn agree(&mut self, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, CheapMsg>) {
        let (view, from) = (View(0), self.core.me);
        ctx.charge_crypto(CryptoOp::Sign);
        let agree = CheapMsg::Agree {
            view,
            seq,
            digest,
            from,
        };
        ctx.multicast(self.other_actives(), agree);
        self.record_agree(from, seq, digest, ctx);
    }

    /// View 0: count `from`'s agreement. Once every active agreed, the
    /// slot commits (the certificate is complete by assumption a2).
    fn record_agree(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, CheapMsg>,
    ) {
        let (quorum, slot) = (self.actives() as usize, self.core.log.slot(seq));
        let Some(digest) = slot.ext.agrees.vote(from, digest, slot.digest, quorum) else {
            return;
        };
        if let Some(t) = slot.ext.t3.take() {
            ctx.cancel_timer(t);
        }
        slot.commit(ctx, seq, View(0), digest);
        self.execute(ctx);
    }

    /// Count an agree or (`commit`) a confirm; one that raced ahead of its
    /// view is buffered by the gate.
    fn on_vote(
        &mut self,
        (from, msg, commit): (NodeId, &CheapMsg, bool),
        (view, seq, digest, voter): (View, SeqNum, Digest, ReplicaId),
        ctx: &mut Context<'_, CheapMsg>,
    ) {
        if !self.core.gate.admit(from, view, msg) || !self.is_active() {
            return;
        }
        ctx.charge_crypto(CryptoOp::Verify);
        if view == View(0) {
            if !commit {
                self.record_agree(voter, seq, digest, ctx);
            }
            return;
        }
        let slot = self.core.log.slot(seq);
        // an agree for a slot proposed in another view is stale
        let stale = !commit && slot.digest.is_some() && slot.ext.view != view;
        let vote = (commit, voter);
        if !stale && self.rounds.count(ctx, slot, (view, seq), vote, digest) {
            self.execute(ctx);
        }
    }

    /// A passive of view 0: f+1 matching updates guarantee that one correct
    /// active vouches for the batch, which commits.
    fn on_update(
        &mut self,
        from: ReplicaId,
        (seq, digest): (SeqNum, Digest),
        batch: &[SignedRequest],
        ctx: &mut Context<'_, CheapMsg>,
    ) {
        if self.is_active() || !self.in_window(seq) {
            return;
        }
        ctx.charge_crypto(CryptoOp::Verify);
        let (quorum, slot) = (self.core.q.weak(), self.core.log.slot(seq));
        // a digest names one batch, so the last update's is the first's
        let vouched = slot.ext.updates.vote(from, digest, Some(digest), quorum);
        if vouched.is_some() && self.core.log.install(seq, digest, batch.to_vec()) {
            self.core.log.slot(seq).commit(ctx, seq, View(0), digest);
            self.execute(ctx);
        }
    }
}

impl ViewChanger for CheapReplica {
    type Msg = CheapMsg;
    type Ext = CheapSlot;
    type Payload = PbftCert;

    fn core(&mut self) -> &mut Core<CheapMsg, CheapSlot, PbftCert> {
        &mut self.core
    }

    /// Every slot above the stable checkpoint agreed to (at a passive:
    /// vouched for) in view 0 or prepared in a later view, with that view.
    /// Leaving view 0 is the transition to the fallback.
    fn report(&mut self, ctx: &mut Context<'_, CheapMsg>) -> Vec<Entry<PbftCert>> {
        let core = &self.core;
        if core.gate.view() == View(0) && !core.votes.has_vote(View(1), core.me) {
            let label = "transition-to-fallback";
            ctx.observe(Observation::Marker { label });
        }
        let above = core.log.range(core.ckpt.low_water().next()..);
        let certified = above.filter(|(_, s)| s.ext.view == View(0) || s.ext.rounds.prepared());
        let cert = |(seq, s): (&SeqNum, &Slot<CheapSlot>)| {
            Some((*seq, s.digest?, PbftCert(s.ext.view, s.batch.clone()?)))
        };
        certified.filter_map(cert).collect()
    }

    fn assemble(&mut self, target: View) -> Vec<Entry<PbftCert>> {
        self.core.votes.highest_certified(target)
    }

    /// A stuck campaign steps to the view after its own: jumping past every
    /// view voted for, the leader's early τ3 campaign and the joiners a
    /// message behind never meet (see DESIGN.md, "CheapBFT's escalation").
    fn escalation(&mut self, work_pending: bool) -> Option<View> {
        let (core, me) = (&self.core, self.core.me);
        let at = (core.gate.view(), core.gate.in_view_change());
        core.votes.escalation_past_own(me, at, work_pending)
    }

    fn adopt(&mut self, (seq, digest, cert): Entry<PbftCert>, ctx: &mut Context<'_, CheapMsg>) {
        let PbftCert(_, batch) = cert;
        self.core.mempool.remove(&batch);
        let (view, leads) = (self.core.gate.view(), self.core.is_leader());
        let slot = self.core.log.reinstall(seq, digest, batch);
        slot.ext.view = view;
        if !leads && self.rounds.prepare(ctx, slot, (view, seq), digest, None) {
            self.execute(ctx);
        }
    }

    /// Above the stable checkpoint and at most the log window beyond it.
    fn in_window(&mut self, seq: SeqNum) -> bool {
        seq > self.core.ckpt.low_water() && seq <= self.core.high_water()
    }

    fn requeue(&mut self, stranded: Vec<SignedRequest>) {
        self.core.mempool.requeue(&self.core.exec, &stranded);
    }

    fn resume(&mut self, ctx: &mut Context<'_, CheapMsg>) {
        self.propose(ctx);
    }

    /// Execute what has committed. Passives apply state but do not serve
    /// clients; in view 0 the actives ship each executed batch to them.
    fn execute(&mut self, ctx: &mut Context<'_, CheapMsg>) {
        let (me, active, n) = (self.core.me, self.is_active(), self.core.q.n as u32);
        let passives: Vec<NodeId> = (self.actives()..n).map(NodeId::replica).collect();
        let mut reply = reply_to_client(Some(CryptoOp::Sign), CheapMsg::Reply);
        let deliver = |ctx: &mut Context<'_, CheapMsg>, r: Reply, seq| {
            if active {
                reply(ctx, r, seq);
            }
        };
        self.core.drain(ctx, deliver, |ctx, intake, exec, slot| {
            intake.settle(ctx, exec);
            if active && !passives.is_empty() {
                let update = CheapMsg::Update {
                    seq: exec.cursor(),
                    digest: slot.digest.unwrap_or(Digest::ZERO),
                    batch: slot.batch.clone().unwrap_or_default(),
                    from: me,
                };
                ctx.multicast(passives.clone(), update);
            }
        });
    }
}

impl Actor<CheapMsg> for CheapReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, CheapMsg>) {
        self.start(ctx);
    }

    fn on_recover(&mut self, mode: RestartMode, ctx: &mut Context<'_, CheapMsg>) {
        self.restart(mode, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: &CheapMsg, ctx: &mut Context<'_, CheapMsg>) {
        match msg {
            CheapMsg::Request(signed) => {
                let wire: RequestWire<CheapMsg> =
                    (Some(|r, _| CheapMsg::Reply(r)), Some(CheapMsg::Request));
                if self.core.take_request(ctx, signed, wire) {
                    self.propose(ctx);
                }
            }
            CheapMsg::PrePrepare {
                view,
                seq,
                digest,
                batch,
            } => self.on_pre_prepare((from, msg), (*view, *seq, *digest), batch, ctx),
            CheapMsg::Agree {
                view,
                seq,
                digest,
                from: r,
            } => self.on_vote((from, msg, false), (*view, *seq, *digest, *r), ctx),
            CheapMsg::Confirm {
                view,
                seq,
                digest,
                from: r,
            } => self.on_vote((from, msg, true), (*view, *seq, *digest, *r), ctx),
            CheapMsg::Update {
                seq,
                digest,
                batch,
                from: r,
            } => self.on_update(*r, (*seq, *digest), batch, ctx),
            CheapMsg::View(vc) => self.on_view_msg(from, vc, ctx),
            CheapMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, CheapMsg>) {
        if kind != TimerKind::T3BackupFailure {
            return self.on_view_timer(id, ctx);
        }
        // a slot's τ3 is taken when it commits: an agreement stalled, an
        // active replica is unresponsive, the optimistic assumption failed
        if self.core.log.values().any(|s| s.ext.t3 == Some(id)) {
            self.start_view_change(View(1), ctx);
        }
    }
}

/// CheapBFT client hooks.
pub struct CheapClientProto;

impl ClientProtocol for CheapClientProto {
    type Msg = CheapMsg;
    type Extra = ();
    const SUBMIT: SubmitPolicy = SubmitPolicy::LeaderThenBroadcast;

    fn wrap_request(req: SignedRequest) -> CheapMsg {
        CheapMsg::Request(req)
    }

    fn unwrap_reply(msg: &CheapMsg) -> Option<&Reply> {
        match msg {
            CheapMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
}

/// Run CheapBFT under a scenario.
pub fn run(scenario: &Scenario) -> RunOutcome {
    let (timing, t3) = (scenario.timing(), SimDuration(scenario.network.delta.0 * 2));
    launch::<CheapClientProto, _>(scenario, scenario.n(3 * scenario.f + 1), |me, q, store| {
        CheapReplica::new(me, q, store, timing, t3, scenario.batch_size)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::script::executions;
    use crate::pbft::{self, PbftOptions};
    use bft_sim::{FaultPlan, SafetyAuditor, SimTime};

    fn accepted(out: &RunOutcome) -> usize {
        out.log.accepted()
    }

    #[test]
    fn fault_free_runs_with_active_subset() {
        let s = Scenario::small(1).with_load(1, 30);
        let out = run(&s);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 30);
        assert_eq!(out.log.marker_count("transition-to-fallback"), 0);
        // the passive replica (r3) sends almost nothing
        let passive_sent = out.metrics.node(NodeId::replica(3)).msgs_sent;
        let active_sent = out.metrics.node(NodeId::replica(1)).msgs_sent;
        assert!(
            passive_sent * 10 < active_sent,
            "passive {passive_sent} vs active {active_sent}"
        );
    }

    #[test]
    fn cheaper_than_pbft_when_optimism_holds() {
        let s = Scenario::small(1).with_load(1, 30);
        let cheap = run(&s);
        let pbft = pbft::run(&s, &PbftOptions::default());
        let msgs = |o: &RunOutcome| o.metrics.replica_msgs_sent();
        assert!(
            msgs(&cheap) < msgs(&pbft),
            "2f+1 actives must beat 3f+1 all-active: {} vs {}",
            msgs(&cheap),
            msgs(&pbft)
        );
    }

    #[test]
    fn active_crash_triggers_transition_and_liveness_survives() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(1), SimTime(3_000_000)));
        let out = run(&s);
        SafetyAuditor::excluding(vec![NodeId::replica(1)]).assert_safe(&out.log);
        assert!(
            out.log.marker_count("transition-to-fallback") >= 1,
            "τ3 must fire"
        );
        assert_eq!(accepted(&out), 20, "fallback mode completes the workload");
    }

    #[test]
    fn passive_replica_state_converges() {
        let s = Scenario::small(1).with_load(1, 20);
        let out = run(&s);
        // the passive replica executed every batch (via updates) and its
        // state digests agree with actives' — the auditor checks exactly
        // this across Execute observations
        SafetyAuditor::all_correct().assert_safe(&out.log);
        let passive_execs = out.log.count(|e| {
            e.node == NodeId::replica(3) && matches!(e.obs, Observation::Execute { .. })
        });
        assert_eq!(passive_execs, 20);
    }

    /// The view-0 leader crashes for good at 3 ms: the view change moves
    /// every replica to a later view with a live leader (a fixed leader
    /// stalled the run here), and every request is accepted.
    #[test]
    fn a_leader_crash_moves_the_run_to_a_live_leader() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(0), SimTime(3_000_000)));
        let out = run(&s);
        SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
        assert!(out.log.max_view() >= View(1));
        assert_eq!(
            accepted(&out),
            20,
            "a later view's leader completes the workload"
        );
    }

    /// Slot 1 is agreed by every active in view 0, but r1 and r2 never
    /// hear each other's agree (their link is cut for the first 50 ms):
    /// only r0 commits it, and the client, one reply short, stalls. The
    /// backups' τ2 moves the run to view 1, whose leader r1 re-proposes
    /// the slot on the digest every active agreed to (a fixed leader that
    /// had executed it re-proposed nothing, and the run stalled here). The
    /// others commit it in view 1, and every replica executes each request
    /// exactly once.
    #[test]
    fn a_slot_agreed_in_view_0_keeps_its_digest_through_the_view_change() {
        let (r1, r2) = (NodeId::replica(1), NodeId::replica(2));
        let cut = FaultPlan::none().partition(r1, r2, SimTime::ZERO, SimTime(50_000_000));
        let s = Scenario::small(1).with_load(1, 10).with_faults(cut);
        let out = run(&s);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 10);
        let commits_of_slot_1 = |node| {
            let at = out.log.entries.iter().filter(|e| e.node == node);
            let commits = at.filter_map(|e| match e.obs {
                Observation::Commit {
                    seq: SeqNum(1),
                    view,
                    digest,
                    ..
                } => Some((view, digest)),
                _ => None,
            });
            commits.collect::<Vec<_>>()
        };
        let r0 = commits_of_slot_1(NodeId::replica(0));
        assert_eq!(r0.len(), 1);
        assert_eq!(r0[0].0, View(0), "r0 saw the view-0 commit");
        for node in (1..4).map(NodeId::replica) {
            assert_eq!(commits_of_slot_1(node), vec![(View(1), r0[0].1)], "{node}");
        }
        for node in (0..4).map(NodeId::replica) {
            let executed = executions(&out).into_iter().filter(|(n, ..)| *n == node);
            let mut requests: Vec<_> = executed.map(|(_, request, _)| request).collect();
            let total = requests.len();
            requests.sort();
            requests.dedup();
            assert_eq!((total, requests.len()), (10, 10), "{node}");
        }
    }

    /// Regression: a fallback Confirm counted for any digest, so 2f
    /// Confirm(X) plus one Confirm(Y) made a 2f+1 quorum on a Y slot.
    #[test]
    fn confirms_for_another_digest_do_not_commit_the_slot() {
        use crate::common::script::{committed, play, rival_batches, Script};
        let store = Scenario::small(1).key_store();
        let [(x, _), (y, batch)] = rival_batches(&store);
        let (view, seq) = (View(1), SeqNum(1));
        let agree = |digest, from| CheapMsg::Agree {
            view,
            seq,
            digest,
            from: ReplicaId(from),
        };
        let confirm = |digest, from| CheapMsg::Confirm {
            view,
            seq,
            digest,
            from: ReplicaId(from),
        };
        let vote = |from| {
            CheapMsg::View(ViewMsg::ViewChange {
                new_view: view,
                stable: (SeqNum(0), Digest::ZERO),
                report: Vec::new(),
                from: ReplicaId(from),
            })
        };
        let new_view = CheapMsg::View(ViewMsg::NewView {
            view,
            proposals: Vec::new(),
        });
        let proposal = CheapMsg::PrePrepare {
            view,
            seq,
            digest: y,
            batch,
        };
        // r1 and r3 demand view 1 (r2 joins: f+1 votes), r1 installs it and
        // proposes Y, r0 and r3 prepare Y but confirm X, and r1 confirms Y
        // last
        let script = |rounds| Script { to: 2, rounds };
        let scripts = vec![
            (
                1,
                script(vec![
                    vec![vote(1)],
                    vec![new_view],
                    vec![proposal],
                    vec![],
                    vec![confirm(y, 1)],
                ]),
            ),
            (
                3,
                script(vec![
                    vec![vote(3)],
                    vec![],
                    vec![],
                    vec![agree(y, 3), confirm(x, 3)],
                ]),
            ),
            (
                0,
                script(vec![
                    vec![],
                    vec![],
                    vec![],
                    vec![agree(y, 0), confirm(x, 0)],
                ]),
            ),
        ];
        let q = QuorumRules { n: 4, f: 1 };
        let timing = (SimDuration::from_millis(40), 16);
        let replica = CheapReplica::new(ReplicaId(2), q, store, timing, SimDuration(1), 1);
        let (out, sent) = play(scripts, replica);
        let confirmed_y = |m: &CheapMsg| matches!(m, CheapMsg::Confirm { digest, view: View(1), .. } if *digest == y);
        assert!(
            sent.iter().any(confirmed_y),
            "r2 is in view 1 and prepared Y"
        );
        assert!(
            !committed(&out),
            "2f Confirm(X) + Confirm(Y) is no quorum for Y"
        );
        assert!(executions(&out).is_empty());
    }

    #[test]
    fn deterministic() {
        let s = Scenario::small(1).with_load(1, 10);
        let a = run(&s);
        let b = run(&s);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
    }
}
