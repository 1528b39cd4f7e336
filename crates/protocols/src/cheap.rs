//! CheapBFT-style resource-efficient BFT (Kapitza et al. '12): design
//! choice 5, *optimistic replica reduction*.
//!
//! Of the `3f+1` replicas, only **`2f+1` active** replicas order and
//! execute requests during normal operation, optimistically assuming all of
//! them are correct (assumption a2): every agreement quorum is *all* active
//! replicas. The remaining `f` **passive** replicas receive state updates
//! only, applying a batch once `f+1` matching update digests vouch for it.
//!
//! When an active replica stops responding (the agreement round times out,
//! τ3), the protocol **transitions**: every replica becomes active and the
//! system falls back to a pessimistic PBFT-style mode (two quadratic rounds
//! with 2f+1 quorums among all `n`), trading the saved resources back for
//! resilience — exactly the trade-off dimension E1/P1 describes.

use std::collections::BTreeMap;
use std::sync::Arc;

use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, Observation, SimDuration, Stage, TimerId};
use bft_types::{Digest, QuorumRules, ReplicaId, Reply, SeqNum, TimerKind, View, WireSize};

use crate::client::{launch, ClientProtocol, SubmitPolicy};
use crate::common::{
    reply_to_client, Execution, Intake, Mempool, Scenario, SignedRequest, SlotLog, Tally,
};

/// CheapBFT messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum CheapMsg {
    /// Client → leader.
    Request(SignedRequest),
    /// Replica → client.
    Reply(Reply),
    /// Leader → active replicas.
    PrePrepare {
        /// Mode epoch (bumps on transition).
        epoch: u32,
        /// Slot.
        seq: SeqNum,
        /// Batch digest.
        digest: Digest,
        /// Batch.
        batch: Vec<SignedRequest>,
    },
    /// Active → active: agreement vote.
    Agree {
        /// Epoch.
        epoch: u32,
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Voter.
        from: ReplicaId,
    },
    /// Fallback second round (pessimistic mode only).
    Confirm {
        /// Epoch.
        epoch: u32,
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Voter.
        from: ReplicaId,
    },
    /// Active → passive: committed batch shipment.
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
    /// Any replica → all: demand the pessimistic fallback.
    Transition {
        /// Sender.
        from: ReplicaId,
    },
}

impl WireSize for CheapMsg {
    fn wire_size(&self) -> usize {
        match self {
            CheapMsg::Request(r) => 1 + r.wire_size(),
            CheapMsg::Reply(r) => 1 + r.wire_size(),
            CheapMsg::PrePrepare { batch, .. } => 1 + 4 + 8 + 32 + batch.wire_size() + 64,
            CheapMsg::Agree { .. } | CheapMsg::Confirm { .. } => 1 + 4 + 8 + 32 + 4 + 64,
            CheapMsg::Update { batch, .. } => 1 + 8 + 32 + batch.wire_size() + 4 + 32,
            CheapMsg::Transition { .. } => 1 + 4 + 64,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct CheapSlot {
    agrees: Tally,
    /// Fallback epochs only.
    confirms: Tally,
    /// τ3 agreement timer (leader only).
    t3: Option<TimerId>,
}

/// A CheapBFT replica.
pub struct CheapReplica {
    me: ReplicaId,
    q: QuorumRules,
    store: Arc<KeyStore>,
    /// 0 = optimistic (2f+1 actives), 1+ = pessimistic fallback.
    epoch: u32,
    next_seq: SeqNum,
    log: SlotLog<CheapSlot>,
    mempool: Mempool,
    exec: Execution,
    /// Passive: update attestations per slot.
    update_votes: BTreeMap<SeqNum, Tally>,
    /// Pending updates (batches) awaiting enough attestations.
    update_batches: BTreeMap<(SeqNum, Digest), Vec<SignedRequest>>,
    transition_votes: Vec<ReplicaId>,
    t3_timeout: SimDuration,
}

impl CheapReplica {
    /// Create a replica.
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        t3_timeout: SimDuration,
        batch_size: usize,
    ) -> Self {
        CheapReplica {
            me,
            q,
            store,
            epoch: 0,
            next_seq: SeqNum(1),
            log: SlotLog::default(),
            mempool: Mempool::new(batch_size),
            exec: Execution::new(),
            update_votes: BTreeMap::new(),
            update_batches: BTreeMap::new(),
            transition_votes: Vec::new(),
            t3_timeout,
        }
    }

    /// Actives in the optimistic epoch: replicas `0 .. 2f+1`. In fallback
    /// epochs, everyone.
    fn active_count(&self) -> usize {
        if self.epoch == 0 {
            2 * self.q.f + 1
        } else {
            self.q.n
        }
    }

    fn is_active(&self) -> bool {
        (self.me.0 as usize) < self.active_count()
    }

    /// Agreement quorum: all actives in the optimistic epoch (assumption
    /// a2), 2f+1 in the fallback.
    fn agree_quorum(&self) -> usize {
        if self.epoch == 0 {
            self.active_count()
        } else {
            self.q.quorum()
        }
    }

    fn leader(&self) -> ReplicaId {
        ReplicaId(0)
    }

    fn is_leader(&self) -> bool {
        self.me == self.leader()
    }

    /// The active replicas other than this one.
    fn other_actives(&self) -> Vec<NodeId> {
        let actives = (0..self.active_count() as u32).map(NodeId::replica);
        actives.filter(|n| *n != NodeId::Replica(self.me)).collect()
    }

    fn passives(&self) -> Vec<NodeId> {
        (self.active_count() as u32..self.q.n as u32)
            .map(NodeId::replica)
            .collect()
    }

    fn propose(&mut self, ctx: &mut Context<'_, CheapMsg>) {
        if !self.is_leader() {
            return;
        }
        let open = self.log.in_flight(self.exec.cursor());
        self.mempool.drop_ordered(&self.exec, open);
        while let Some((seq, digest, batch)) = self.mempool.cut(ctx, &mut self.next_seq) {
            ctx.charge_crypto(CryptoOp::Sign);
            let epoch = self.epoch;
            self.log.install(seq, digest, batch.clone());
            ctx.multicast(
                self.other_actives(),
                CheapMsg::PrePrepare {
                    epoch,
                    seq,
                    digest,
                    batch,
                },
            );
            // arm τ3: if the agreement round stalls, transition
            let t3 = ctx.set_timer(TimerKind::T3BackupFailure, self.t3_timeout);
            self.log.slot(seq).ext.t3 = Some(t3);
            self.send_agree(seq, digest, ctx);
        }
    }

    fn send_agree(&mut self, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, CheapMsg>) {
        let epoch = self.epoch;
        let me = self.me;
        ctx.charge_crypto(CryptoOp::Sign);
        ctx.multicast(
            self.other_actives(),
            CheapMsg::Agree {
                epoch,
                seq,
                digest,
                from: me,
            },
        );
        self.record_agree(me, seq, digest, ctx);
    }

    fn record_agree(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, CheapMsg>,
    ) {
        let (quorum, optimistic) = (self.agree_quorum(), self.epoch == 0);
        let slot = self.log.slot(seq);
        let Some(digest) = slot.ext.agrees.vote(from, digest, slot.digest, quorum) else {
            return;
        };
        if let Some(t) = slot.ext.t3.take() {
            ctx.cancel_timer(t);
        }
        if optimistic {
            // all actives agreed: commit directly (the certificate is
            // complete by assumption a2)
            self.commit_slot(seq, digest, ctx);
        } else {
            // pessimistic fallback: a second round is needed
            self.send_confirm(seq, digest, ctx);
        }
    }

    fn send_confirm(&mut self, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, CheapMsg>) {
        let (epoch, me) = (self.epoch, self.me);
        ctx.charge_crypto(CryptoOp::Sign);
        ctx.broadcast_replicas(CheapMsg::Confirm {
            epoch,
            seq,
            digest,
            from: me,
        });
        self.record_confirm(me, seq, digest, ctx);
    }

    fn record_confirm(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, CheapMsg>,
    ) {
        let quorum = self.q.quorum();
        let slot = self.log.slot(seq);
        if let Some(digest) = slot.ext.confirms.vote(from, digest, slot.digest, quorum) {
            self.commit_slot(seq, digest, ctx);
        }
    }

    fn commit_slot(&mut self, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, CheapMsg>) {
        let (view, slot) = (View(self.epoch as u64), self.log.slot(seq));
        if slot.committed {
            return;
        }
        slot.commit(ctx, seq, view, digest);
        self.try_execute(ctx);
    }

    fn try_execute(&mut self, ctx: &mut Context<'_, CheapMsg>) {
        let (me, active, view) = (self.me, self.is_active(), View(self.epoch as u64));
        // ship executed batches to passives (optimistic epoch only; in the
        // fallback everyone is active)
        let passives = (self.epoch == 0 && active).then(|| self.passives());
        // passives apply state but do not serve clients
        let mut send = reply_to_client(Some(CryptoOp::Sign), CheapMsg::Reply);
        let deliver = |ctx: &mut Context<'_, CheapMsg>, reply: Reply, seq| {
            if active {
                send(ctx, reply, seq);
            }
        };
        self.exec
            .drain(ctx, &mut self.log, view, deliver, |ctx, _, log, seq| {
                let (Some(passives), Some(slot)) = (&passives, log.get(&seq)) else {
                    return;
                };
                let update = CheapMsg::Update {
                    seq,
                    digest: slot.digest.unwrap_or(Digest::ZERO),
                    batch: slot.batch.clone().unwrap_or_default(),
                    from: me,
                };
                ctx.multicast(passives.clone(), update);
            });
    }

    fn on_update(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        batch: Vec<SignedRequest>,
        ctx: &mut Context<'_, CheapMsg>,
    ) {
        if self.is_active() {
            return;
        }
        ctx.charge_crypto(CryptoOp::Verify);
        self.update_batches.entry((seq, digest)).or_insert(batch);
        // f+1 matching updates guarantee one correct active vouches
        let votes = self.update_votes.entry(seq).or_default();
        if votes
            .vote(from, digest, Some(digest), self.q.weak())
            .is_some()
        {
            if let Some(batch) = self.update_batches.get(&(seq, digest)).cloned() {
                self.log.install(seq, digest, batch);
                self.commit_slot(seq, digest, ctx);
            }
        }
    }

    fn demand_transition(&mut self, ctx: &mut Context<'_, CheapMsg>) {
        if self.epoch > 0 {
            return;
        }
        ctx.charge_crypto(CryptoOp::Sign);
        let me = self.me;
        ctx.broadcast_replicas(CheapMsg::Transition { from: me });
        self.record_transition(me, ctx);
    }

    fn record_transition(&mut self, from: ReplicaId, ctx: &mut Context<'_, CheapMsg>) {
        if self.epoch > 0 {
            return;
        }
        if !self.transition_votes.contains(&from) {
            self.transition_votes.push(from);
        }
        // echo: one demand is enough to join the campaign (in CheapBFT the
        // demand carries a proof of the broken agreement round; the echo
        // models the resulting cascade)
        let me = self.me;
        if from != me && !self.transition_votes.contains(&me) {
            self.transition_votes.push(me);
            ctx.charge_crypto(CryptoOp::Sign);
            ctx.broadcast_replicas(CheapMsg::Transition { from: me });
        }
        if self.transition_votes.len() >= self.q.weak() {
            // fall back: everyone becomes active, quorums drop to 2f+1,
            // a second (confirm) round is added
            self.epoch = 1;
            ctx.observe(Observation::Marker {
                label: "transition-to-fallback",
            });
            ctx.observe(Observation::NewView { view: View(1) });
            // restart agreement for all unexecuted slots under fallback
            // rules; the leader re-sends full pre-prepares because former
            // passives have never seen these batches
            let unfinished = self.log.entries_above(self.exec.cursor(), |_| true);
            for (seq, digest, batch) in unfinished {
                self.log.slot(seq).reset();
                if self.is_leader() {
                    let epoch = self.epoch;
                    ctx.charge_crypto(CryptoOp::Sign);
                    ctx.broadcast_replicas(CheapMsg::PrePrepare {
                        epoch,
                        seq,
                        digest,
                        batch,
                    });
                    self.send_agree(seq, digest, ctx);
                }
            }
            if self.is_leader() {
                self.propose(ctx);
            }
        }
    }
}

impl Actor<CheapMsg> for CheapReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, CheapMsg>) {
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
    }

    fn on_message(&mut self, from: NodeId, msg: &CheapMsg, ctx: &mut Context<'_, CheapMsg>) {
        match msg {
            CheapMsg::Request(signed) => {
                let view = View(self.epoch as u64);
                let answer = reply_to_client(None, CheapMsg::Reply);
                if !Intake::admit(ctx, &self.store, &self.exec, signed, view, answer) {
                    return;
                }
                self.mempool.push(signed);
                if self.is_leader() {
                    self.propose(ctx);
                } else {
                    ctx.send(
                        NodeId::Replica(self.leader()),
                        CheapMsg::Request(signed.clone()),
                    );
                }
            }
            CheapMsg::PrePrepare {
                epoch,
                seq,
                digest,
                batch,
            } => {
                if *epoch != self.epoch || !self.is_active() {
                    return;
                }
                if from != NodeId::Replica(self.leader()) {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify);
                ctx.charge_crypto(CryptoOp::Hash);
                if digest_of(batch) != *digest {
                    return;
                }
                self.mempool.remove(batch);
                if self.log.install(*seq, *digest, batch.clone()) {
                    self.send_agree(*seq, *digest, ctx);
                }
            }
            CheapMsg::Agree {
                epoch,
                seq,
                digest,
                from: r,
            } => {
                if *epoch != self.epoch || !self.is_active() {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify);
                self.record_agree(*r, *seq, *digest, ctx);
            }
            CheapMsg::Confirm {
                epoch,
                seq,
                digest,
                from: r,
            } => {
                if *epoch != self.epoch {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify);
                self.record_confirm(*r, *seq, *digest, ctx);
            }
            CheapMsg::Update {
                seq,
                digest,
                batch,
                from: r,
            } => {
                self.on_update(*r, *seq, *digest, batch.clone(), ctx);
            }
            CheapMsg::Transition { from: r } => {
                ctx.charge_crypto(CryptoOp::Verify);
                self.record_transition(*r, ctx);
            }
            CheapMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, CheapMsg>) {
        if kind == TimerKind::T3BackupFailure {
            let owner = self.log.values_mut().find(|s| s.ext.t3 == Some(id));
            let stalled = owner.is_some_and(|slot| {
                slot.ext.t3 = None;
                !slot.ext.agrees.crossed()
            });
            if stalled {
                // an active replica is unresponsive: the optimistic
                // assumption failed
                self.demand_transition(ctx);
            }
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
    let t3 = SimDuration(scenario.network.delta.0 * 2);
    launch::<CheapClientProto, _>(scenario, scenario.n(3 * scenario.f + 1), |me, q, store| {
        CheapReplica::new(me, q, store, t3, scenario.batch_size)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbft::{self, PbftOptions};
    use bft_sim::{FaultPlan, SafetyAuditor, SimTime};

    fn accepted(out: &RunOutcome) -> usize {
        out.log.client_latencies().len()
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

    /// Regression: a fallback-epoch Confirm counted for any digest, so
    /// 2f Confirm(X) plus one Confirm(Y) made a 2f+1 quorum on a Y slot.
    #[test]
    fn confirms_for_another_digest_do_not_commit_the_slot() {
        use crate::common::script::{committed, executions, play, rival_batches, Script};
        let store = Scenario::small(1).key_store();
        let [(x, _), (y, batch)] = rival_batches(&store);
        let (epoch, seq) = (1, SeqNum(1));
        let confirm = |digest, from| CheapMsg::Confirm {
            epoch,
            seq,
            digest,
            from: ReplicaId(from),
        };
        let proposal = CheapMsg::PrePrepare {
            epoch,
            seq,
            digest: y,
            batch,
        };
        // r3 demands the fallback (r2 joins: f+1 demands), leader r0 then
        // proposes Y, r1 and r3 confirm X, and r0 confirms Y last
        let script = |rounds| Script { to: 2, rounds };
        let transition = CheapMsg::Transition { from: ReplicaId(3) };
        let scripts = vec![
            (
                3,
                script(vec![vec![transition], vec![], vec![confirm(x, 3)]]),
            ),
            (1, script(vec![vec![], vec![], vec![confirm(x, 1)]])),
            (
                0,
                script(vec![vec![], vec![proposal], vec![], vec![confirm(y, 0)]]),
            ),
        ];
        let q = QuorumRules { n: 4, f: 1 };
        let replica = CheapReplica::new(ReplicaId(2), q, store, SimDuration::from_millis(20), 1);
        let (out, sent) = play(scripts, replica);
        let agreed_y =
            |m: &CheapMsg| matches!(m, CheapMsg::Agree { digest, epoch: 1, .. } if *digest == y);
        assert!(
            sent.iter().any(agreed_y),
            "r2 is in the fallback and accepted Y"
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
