//! FaB — Fast Byzantine consensus (Martin & Alvisi '06): design choice 2,
//! *phase reduction through redundancy*.
//!
//! A two-phase protocol: `propose` (linear, leader → all) followed by a
//! single `accept` round (quadratic, all-to-all). Matching accepts from
//! **4f+1** of the **5f+1** replicas commit the request — one phase fewer
//! than PBFT, bought with 2f extra replicas. (The paper notes `5f−1` was
//! later proven to be the tight bound for two-step consensus; we implement
//! the classic 5f+1 formulation.)
//!
//! The reason 4f+1-of-5f+1 is safe in two phases: any two accept quorums
//! intersect in at least `3f+1` replicas, of which at least `2f+1` are
//! correct — a majority of the correct replicas. A value accepted by a
//! quorum can therefore never be displaced in a later view: the new leader
//! always hears about it from a correct majority witness.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, Observation, SimDuration, Stage, TimerId};
use bft_types::{
    Digest, QuorumRules, ReplicaId, Reply, RequestId, SeqNum, TimerKind, View, WireSize,
};

use crate::common::{
    drop_ordered, enqueue_unique, launch, reply_to_client, requeue_unexecuted, BatchEntry,
    ClientProtocol, Core, Execution, Intake, Scenario, SignedRequest, SubmitPolicy, ViewChanger,
    ViewMsg,
};

/// FaB messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum FabMsg {
    /// Client → leader.
    Request(SignedRequest),
    /// Replica → client.
    Reply(Reply),
    /// Leader → all: proposal (phase 1 of 2).
    Propose {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Batch digest.
        digest: Digest,
        /// Batch.
        batch: Vec<SignedRequest>,
    },
    /// All → all: accept (phase 2 of 2); 4f+1 matching accepts commit.
    Accept {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Sender.
        from: ReplicaId,
    },
    /// View change: votes carry the slots the sender accepted.
    View(ViewMsg<Vec<SignedRequest>>),
}

impl WireSize for FabMsg {
    fn wire_size(&self) -> usize {
        match self {
            FabMsg::Request(r) => 1 + r.wire_size(),
            FabMsg::Reply(r) => 1 + r.wire_size(),
            FabMsg::Propose { batch, .. } => 1 + 16 + 32 + batch.wire_size() + 72,
            FabMsg::Accept { .. } => 1 + 16 + 32 + 4 + 72,
            FabMsg::View(m) => m.wire_size(72, WireSize::wire_size),
        }
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct FabSlot {
    accepts: Vec<ReplicaId>,
    /// This replica sent its accept.
    accepted: bool,
}

/// A FaB replica.
pub struct FabReplica {
    core: Core<FabMsg, FabSlot, Vec<SignedRequest>>,
    store: Arc<KeyStore>,
    mempool: VecDeque<SignedRequest>,
    batch_size: usize,
}

impl FabReplica {
    /// Create a replica.
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        view_timeout: SimDuration,
        batch_size: usize,
    ) -> Self {
        FabReplica {
            core: Core::new(me, q, view_timeout, Execution::new()),
            store,
            mempool: VecDeque::new(),
            batch_size,
        }
    }

    /// The accept quorum: 4f+1 of 5f+1 (`fast_quorum`).
    fn accept_quorum(&self) -> usize {
        self.core.q.fast_quorum()
    }

    fn propose(&mut self, ctx: &mut Context<'_, FabMsg>) {
        if !self.core.is_leader() || self.core.gate.in_view_change() {
            return;
        }
        drop_ordered(&mut self.mempool, &self.core.exec, &self.core.log);
        while !self.mempool.is_empty() {
            let take = self.batch_size.min(self.mempool.len());
            let batch: Vec<SignedRequest> = self.mempool.drain(..take).collect();
            let seq = self.core.next_seq;
            self.core.next_seq = self.core.next_seq.next();
            let digest = digest_of(&batch);
            ctx.charge_crypto(CryptoOp::Hash);
            ctx.charge_crypto(CryptoOp::Sign);
            let view = self.core.gate.view();
            self.core.log.install(seq, digest, batch.clone());
            ctx.broadcast_replicas(FabMsg::Propose {
                view,
                seq,
                digest,
                batch,
            });
            self.accept(seq, digest, ctx);
        }
    }

    fn accept(&mut self, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, FabMsg>) {
        let view = self.core.gate.view();
        let me = self.core.me;
        {
            let slot = self.core.log.slot(seq);
            if slot.ext.accepted {
                return;
            }
            slot.ext.accepted = true;
        }
        ctx.charge_crypto(CryptoOp::Sign);
        ctx.broadcast_replicas(FabMsg::Accept {
            view,
            seq,
            digest,
            from: me,
        });
        self.record_accept(me, seq, digest, ctx);
    }

    fn record_accept(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, FabMsg>,
    ) {
        let quorum = self.accept_quorum();
        let view = self.core.gate.view();
        let slot = self.core.log.slot(seq);
        if slot.digest.is_some() && slot.digest != Some(digest) {
            return;
        }
        if !slot.ext.accepts.contains(&from) {
            slot.ext.accepts.push(from);
        }
        if !slot.committed && slot.ext.accepts.len() >= quorum && slot.digest == Some(digest) {
            slot.committed = true;
            ctx.observe(Observation::Commit {
                seq,
                view,
                digest,
                speculative: false,
            });
            self.core.execute_ready(ctx, CryptoOp::Sign, FabMsg::Reply);
        }
    }
}

impl ViewChanger for FabReplica {
    type Msg = FabMsg;
    type Ext = FabSlot;
    type Payload = Vec<SignedRequest>;

    fn core(&mut self) -> &mut Core<FabMsg, FabSlot, Vec<SignedRequest>> {
        &mut self.core
    }

    fn wire(msg: ViewMsg<Vec<SignedRequest>>) -> FabMsg {
        FabMsg::View(msg)
    }

    /// n − f = 4f+1: the recovery certificate.
    fn new_view_quorum(q: QuorumRules) -> usize {
        q.n - q.f
    }

    /// The slots this replica accepted.
    fn report(&mut self, _: &mut Context<'_, FabMsg>) -> Vec<BatchEntry> {
        self.core.open_entries(|s| s.ext.accepted)
    }

    /// A value accepted by ≥ 2f+1 replicas of the vote set may have
    /// committed and must be re-proposed: per slot, the first digest
    /// reported stands unless another has more than f accept witnesses.
    fn assemble(&mut self, target: View) -> Vec<BatchEntry> {
        let votes = self.core.votes.votes(target);
        let mut counts: BTreeMap<(SeqNum, Digest), (usize, &Vec<SignedRequest>)> = BTreeMap::new();
        for (seq, digest, batch) in votes.iter().flat_map(|(_, accepted)| accepted) {
            counts.entry((*seq, *digest)).or_insert((0, batch)).0 += 1;
        }
        let mut proposals: BTreeMap<SeqNum, (Digest, &Vec<SignedRequest>)> = BTreeMap::new();
        for ((seq, digest), (count, batch)) in counts {
            if !proposals.contains_key(&seq) || count > self.core.q.f {
                proposals.insert(seq, (digest, batch));
            }
        }
        let entry = |(s, (d, b)): (SeqNum, (Digest, &Vec<SignedRequest>))| (s, d, b.clone());
        proposals.into_iter().map(entry).collect()
    }

    fn adopt(&mut self, (seq, digest, batch): BatchEntry, ctx: &mut Context<'_, FabMsg>) {
        self.core.log.reinstall(seq, digest, batch);
        self.accept(seq, digest, ctx);
    }

    fn requeue(&mut self, stranded: Vec<SignedRequest>) {
        requeue_unexecuted(&mut self.mempool, &self.core.exec, &stranded);
    }

    fn resume(&mut self, ctx: &mut Context<'_, FabMsg>) {
        self.propose(ctx);
    }
}

impl Actor<FabMsg> for FabReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, FabMsg>) {
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
    }

    fn on_message(&mut self, from: NodeId, msg: &FabMsg, ctx: &mut Context<'_, FabMsg>) {
        match msg {
            FabMsg::Request(signed) => {
                let view = self.core.gate.view();
                let answer = reply_to_client(None, FabMsg::Reply);
                if !Intake::admit(ctx, &self.store, &self.core.exec, signed, view, answer) {
                    return;
                }
                enqueue_unique(&mut self.mempool, signed);
                if self.core.is_leader() {
                    self.propose(ctx);
                } else {
                    let may_arm = !self.core.gate.in_view_change();
                    self.core.intake.relay(
                        ctx,
                        signed,
                        self.core.leader(),
                        FabMsg::Request,
                        may_arm,
                    );
                }
            }
            FabMsg::Propose {
                view,
                seq,
                digest,
                batch,
            } => {
                if !self.core.gate.admit(from, *view, msg) {
                    return;
                }
                if from != NodeId::Replica(self.core.leader()) {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify);
                ctx.charge_crypto(CryptoOp::Hash);
                if digest_of(batch) != *digest {
                    return;
                }
                let ids: Vec<RequestId> = batch.iter().map(|r| r.request.id).collect();
                self.mempool.retain(|r| !ids.contains(&r.request.id));
                if self.core.log.install(*seq, *digest, batch.clone()) {
                    self.accept(*seq, *digest, ctx);
                }
            }
            FabMsg::Accept {
                view,
                seq,
                digest,
                from: r,
            } => {
                if !self.core.gate.admit(from, *view, msg) {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify);
                self.record_accept(*r, *seq, *digest, ctx);
            }
            FabMsg::View(vc) => self.on_view_msg(from, vc, ctx),
            FabMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, _: TimerKind, ctx: &mut Context<'_, FabMsg>) {
        self.on_view_timer(id, ctx);
    }
}

/// FaB client hooks.
pub struct FabClientProto;

impl ClientProtocol for FabClientProto {
    type Msg = FabMsg;
    const SUBMIT: SubmitPolicy = SubmitPolicy::LeaderThenBroadcast;

    fn wrap_request(req: SignedRequest) -> FabMsg {
        FabMsg::Request(req)
    }

    fn unwrap_reply(msg: &FabMsg) -> Option<&Reply> {
        match msg {
            FabMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
}

/// Run FaB under a scenario (n = 5f+1).
pub fn run(scenario: &Scenario) -> RunOutcome {
    let view_timeout = SimDuration(scenario.network.delta.0 * 4);
    launch::<FabClientProto, _>(scenario, scenario.n(5 * scenario.f + 1), |me, q, store| {
        FabReplica::new(me, q, store, view_timeout, scenario.batch_size)
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
    fn fault_free_two_phase_commit() {
        let s = Scenario::small(1).with_load(1, 30);
        let out = run(&s);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 30);
        assert_eq!(out.log.max_view(), View(0));
    }

    #[test]
    fn two_phases_are_faster_than_pbft_three() {
        // DC2's trade-off: same network, FaB commits in 2 phases vs PBFT's 3
        let s = Scenario::small(1).with_load(1, 30);
        let fab = run(&s);
        let pbft = pbft::run(&s, &PbftOptions::default());
        let mean = |o: &RunOutcome| {
            let l = o.log.client_latencies();
            l.iter().map(|(_, d)| d.0).sum::<u64>() as f64 / l.len() as f64
        };
        assert!(
            mean(&fab) < mean(&pbft),
            "FaB (2 phases) must beat PBFT (3 phases): {} vs {}",
            mean(&fab),
            mean(&pbft)
        );
        // but it pays 2f more replicas
        assert_eq!(
            fab.metrics.nodes().filter(|(n, _)| n.is_replica()).count(),
            6
        );
    }

    #[test]
    fn tolerates_f_crashes() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(3), SimTime::ZERO));
        let out = run(&s);
        SafetyAuditor::excluding(vec![NodeId::replica(3)]).assert_safe(&out.log);
        assert_eq!(accepted(&out), 20, "4f+1 accepts reachable with 5f alive");
    }

    #[test]
    fn leader_crash_view_change() {
        let s = Scenario::small(1)
            .with_load(1, 15)
            .with_faults(FaultPlan::none().crash(NodeId::replica(0), SimTime(3_000_000)));
        let out = run(&s);
        SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
        assert!(out.log.max_view() >= View(1));
        assert_eq!(accepted(&out), 15);
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
