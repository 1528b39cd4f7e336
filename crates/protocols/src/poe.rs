//! PoE — Proof-of-Execution (Gupta et al. '21): speculative phase
//! reduction (design choice 7).
//!
//! Like SBFT, PoE is collector-based and linear; unlike SBFT's fast path it
//! does **not** wait for all `n` shares. The collector certifies a proposal
//! with only `2f+1` support shares and replicas **execute speculatively**
//! on the certificate, optimistically assuming either all signers were
//! correct or at least `f+1` correct replicas saw the certificate. Clients
//! wait for `2f+1` matching (speculative) replies.
//!
//! The gamble can fail: if fewer than `f+1` correct replicas received the
//! certificate and none of them makes it into the view-change quorum, the
//! new view re-proposes a *different* assignment for that sequence number —
//! replicas that executed the dead assignment **roll back** (the undo-log
//! machinery of `bft-state`) and re-execute. The Byzantine leader variant
//! [`PoeBehavior::WithholdCertify`] manufactures exactly this scenario, and
//! the tests assert both the rollback and the preserved cross-replica
//! safety.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, Observation, SimDuration, Stage, TimerId};
use bft_types::{
    Digest, QuorumRules, ReplicaId, Reply, RequestId, SeqNum, TimerKind, View, WireSize,
};

use crate::common::{
    drop_ordered, enqueue_unique, launch, reply_to_client, BatchEntry, ClientProtocol, Core,
    Execution, Intake, Scenario, SignedRequest, SubmitPolicy, ViewChanger, ViewMsg,
};

/// PoE messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum PoeMsg {
    /// Client → leader.
    Request(SignedRequest),
    /// Replica → client (speculative).
    Reply(Reply),
    /// Leader → replicas.
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
    /// Replica → collector: support share.
    Support {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Signer.
        from: ReplicaId,
    },
    /// Collector → replicas: 2f+1-share certificate — execute
    /// speculatively.
    Certify {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Shares combined (≥ 2f+1).
        shares: usize,
    },
    /// View change: votes carry every certified slot; the new-view message
    /// the gap-free assignment sequence.
    View(ViewMsg<Vec<SignedRequest>>),
}

impl WireSize for PoeMsg {
    fn wire_size(&self) -> usize {
        match self {
            PoeMsg::Request(r) => 1 + r.wire_size(),
            PoeMsg::Reply(r) => 1 + r.wire_size(),
            PoeMsg::Propose { batch, .. } => 1 + 16 + 32 + batch.wire_size() + 72,
            PoeMsg::Support { .. } => 1 + 16 + 32 + 4 + 72,
            PoeMsg::Certify { .. } => 1 + 16 + 32 + 96,
            PoeMsg::View(m) => m.wire_size(72, WireSize::wire_size),
        }
    }
}

/// Byzantine leader behaviors for PoE experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoeBehavior {
    /// Follows the protocol.
    Honest,
    /// When certifying the slot with this sequence number, send the
    /// certificate to a single replica only, then fall silent — the
    /// rollback-manufacturing adversary.
    WithholdCertify {
        /// The victimized slot.
        seq: u64,
        /// The only replica that receives the certificate.
        sole_recipient: ReplicaId,
    },
}

#[derive(Debug, Clone, Default)]
pub(crate) struct PoeSlot {
    /// Support shares (leader only). A certified slot is the log's
    /// `committed`: executing it is PoE's speculative commit.
    supports: Vec<ReplicaId>,
    /// First state-machine sequence number this slot's batch occupies
    /// (set at execution; needed to aim rollbacks).
    sm_start: Option<SeqNum>,
}

/// A PoE replica.
pub struct PoeReplica {
    core: Core<PoeMsg, PoeSlot, Vec<SignedRequest>>,
    store: Arc<KeyStore>,
    behavior: PoeBehavior,
    known: BTreeMap<RequestId, SignedRequest>,
    /// The latest new-view installed, kept to bring stale replicas up to
    /// date when their view-change messages reveal they are behind.
    last_new_view: Option<ViewMsg<Vec<SignedRequest>>>,
    batch_size: usize,
    silenced: bool,
    mempool: VecDeque<SignedRequest>,
}

impl PoeReplica {
    /// Create a replica.
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        behavior: PoeBehavior,
        view_timeout: SimDuration,
        batch_size: usize,
    ) -> Self {
        PoeReplica {
            core: Core::new(me, q, view_timeout, Execution::new().speculative()),
            store,
            behavior,
            known: BTreeMap::new(),
            last_new_view: None,
            batch_size,
            silenced: false,
            mempool: VecDeque::new(),
        }
    }

    fn propose(&mut self, ctx: &mut Context<'_, PoeMsg>) {
        if !self.core.is_leader() || self.core.gate.in_view_change() || self.silenced {
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
            ctx.broadcast_replicas(PoeMsg::Propose {
                view,
                seq,
                digest,
                batch,
            });
            ctx.charge_crypto(CryptoOp::ThresholdShareGen);
            self.record_support(self.core.me, seq, digest, ctx);
        }
    }

    fn record_support(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, PoeMsg>,
    ) {
        if !self.core.is_leader() || self.silenced {
            return;
        }
        let quorum = self.core.q.quorum();
        let view = self.core.gate.view();
        let behavior = self.behavior;
        let slot = self.core.log.slot(seq);
        if slot.digest != Some(digest) || slot.committed {
            return;
        }
        if !slot.ext.supports.contains(&from) {
            slot.ext.supports.push(from);
        }
        if slot.ext.supports.len() >= quorum {
            slot.committed = true;
            ctx.charge_crypto(CryptoOp::ThresholdCombine);
            let shares = slot.ext.supports.len();
            match behavior {
                PoeBehavior::WithholdCertify {
                    seq: trigger,
                    sole_recipient,
                } if seq.0 == trigger => {
                    // adversary: one replica gets the certificate, then
                    // silence — engineering the rollback scenario
                    ctx.observe(Observation::Marker {
                        label: "withheld-certify",
                    });
                    ctx.send(
                        NodeId::Replica(sole_recipient),
                        PoeMsg::Certify {
                            view,
                            seq,
                            digest,
                            shares,
                        },
                    );
                    self.silenced = true;
                }
                _ => {
                    ctx.broadcast_replicas(PoeMsg::Certify {
                        view,
                        seq,
                        digest,
                        shares,
                    });
                    self.on_certify(seq, digest, ctx);
                }
            }
        }
    }

    fn on_certify(&mut self, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, PoeMsg>) {
        let slot = self.core.log.slot(seq);
        slot.digest.get_or_insert(digest);
        slot.committed = true;
        self.try_execute(ctx);
    }

    fn try_execute(&mut self, ctx: &mut Context<'_, PoeMsg>) {
        let view = self.core.gate.view();
        let deliver = reply_to_client(Some(CryptoOp::MacGen), PoeMsg::Reply);
        let intake = &mut self.core.intake;
        // a certified slot whose proposal is still in flight stops the loop
        // (the Propose handler re-enters here)
        self.core.exec.drain_then(
            ctx,
            &mut self.core.log,
            view,
            deliver,
            // executing *is* PoE's (speculative) commit
            |ctx, seq, slot| {
                ctx.observe(Observation::Commit {
                    seq,
                    view,
                    digest: slot.digest.unwrap_or(Digest::ZERO),
                    speculative: true,
                })
            },
            |ctx, exec, log, seq| {
                // the batch occupies the last state-machine sequence numbers
                let slot = log.slot(seq);
                let len = slot.batch.as_ref().map_or(0, Vec::len) as u64;
                slot.ext.sm_start = Some(SeqNum(exec.sm().last_executed().0 + 1 - len));
                intake.settle(ctx, exec);
            },
        );
    }
}

/// View change with rollback.
impl ViewChanger for PoeReplica {
    type Msg = PoeMsg;
    type Ext = PoeSlot;
    type Payload = Vec<SignedRequest>;

    fn core(&mut self) -> &mut Core<PoeMsg, PoeSlot, Vec<SignedRequest>> {
        &mut self.core
    }

    fn wire(msg: ViewMsg<Vec<SignedRequest>>) -> PoeMsg {
        PoeMsg::View(msg)
    }

    /// Every certified slot, executed or not: what this replica executed
    /// speculatively only survives if a quorum vouches for it.
    fn report(&mut self, _: &mut Context<'_, PoeMsg>) -> Vec<BatchEntry> {
        self.core.log.entries_above(SeqNum(0), |s| s.committed)
    }

    /// The union of certified entries, then fresh slots for known requests
    /// none of them covers, compacted so the sequence is gap-free from 1.
    fn assemble(&mut self, target: View) -> Vec<BatchEntry> {
        let union = self.core.votes.first_seen_union(target);
        let mut assignments: Vec<(Digest, Vec<SignedRequest>)> =
            union.into_iter().map(|(_, d, b)| (d, b)).collect();
        let covered: Vec<RequestId> = assignments
            .iter()
            .flat_map(|(_, b)| b.iter().map(|r| r.request.id))
            .collect();
        let uncovered: Vec<SignedRequest> = self
            .known
            .values()
            .filter(|r| !covered.contains(&r.request.id))
            .cloned()
            .collect();
        for chunk in uncovered.chunks(self.batch_size.max(1)) {
            let batch = chunk.to_vec();
            assignments.push((digest_of(&batch), batch));
        }
        let numbered = assignments.into_iter().enumerate();
        numbered
            .map(|(i, (d, b))| (SeqNum(i as u64 + 1), d, b))
            .collect()
    }

    /// The new-view quorum carries the certificate: an adopted slot is
    /// executable at once.
    fn adopt(&mut self, (seq, digest, batch): BatchEntry, _: &mut Context<'_, PoeMsg>) {
        for r in &batch {
            let known = self.known.entry(r.request.id);
            known.or_insert_with(|| r.clone());
        }
        self.core.log.reinstall(seq, digest, batch).committed = true;
    }

    /// Nothing is stranded: the assignment sequence is gap-free and every
    /// known request is in it.
    fn requeue(&mut self, _: Vec<SignedRequest>) {}

    fn resume(&mut self, ctx: &mut Context<'_, PoeMsg>) {
        self.propose(ctx);
    }

    /// PoE's adoption differs from the family's in what happens *below*
    /// the assignments: speculative executions the new view does not
    /// confirm are rolled back first, then every slot above the (possibly
    /// re-aimed) cursor is replaced by the assignments.
    fn adopt_view(&mut self, assignments: Vec<BatchEntry>, ctx: &mut Context<'_, PoeMsg>) {
        self.last_new_view = Some(ViewMsg::NewView {
            view: self.core.gate.view(),
            proposals: assignments.clone(),
        });
        // the first executed slot whose assignment differs from what we
        // executed; failing that, any executed slot beyond the assignments
        let cursor = self.core.exec.cursor();
        let diverged = |(seq, digest, _): &&BatchEntry| {
            *seq <= cursor
                && self
                    .core
                    .log
                    .get(seq)
                    .is_some_and(|s| s.digest != Some(*digest))
        };
        let max_assigned = assignments.iter().map(|(s, ..)| *s).max();
        let max_assigned = max_assigned.unwrap_or(SeqNum(0));
        let first_bad = assignments
            .iter()
            .find(diverged)
            .map(|(seq, ..)| *seq)
            .or_else(|| (cursor > max_assigned).then(|| max_assigned.next()));
        if let Some(first_bad) = first_bad {
            if let Some(sm_start) = self.core.log.get(&first_bad).and_then(|s| s.ext.sm_start) {
                self.core.exec.rollback(ctx, sm_start);
                self.core.exec.set_cursor(first_bad.prev());
            }
        }
        let cursor = self.core.exec.cursor();
        self.core.log.retain(|seq, _| *seq <= cursor);
        for entry in assignments.into_iter().filter(|(seq, ..)| *seq > cursor) {
            self.adopt(entry, ctx);
        }
        self.core.next_seq = max_assigned.max(cursor).next();
        self.try_execute(ctx);
        if self.core.is_leader() {
            self.resume(ctx);
        }
    }
}

impl Actor<PoeMsg> for PoeReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, PoeMsg>) {
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
    }

    fn on_message(&mut self, from: NodeId, msg: &PoeMsg, ctx: &mut Context<'_, PoeMsg>) {
        match msg {
            PoeMsg::Request(signed) => {
                let view = self.core.gate.view();
                let answer = reply_to_client(None, PoeMsg::Reply);
                if !Intake::admit(ctx, &self.store, &self.core.exec, signed, view, answer) {
                    return;
                }
                self.known.insert(signed.request.id, signed.clone());
                if self.core.is_leader() {
                    enqueue_unique(&mut self.mempool, signed);
                    self.propose(ctx);
                } else {
                    let may_arm = !self.core.gate.in_view_change();
                    self.core.intake.relay(
                        ctx,
                        signed,
                        self.core.leader(),
                        PoeMsg::Request,
                        may_arm,
                    );
                }
            }
            PoeMsg::Propose {
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
                for r in batch.iter() {
                    self.known.entry(r.request.id).or_insert_with(|| r.clone());
                }
                if !self.core.log.install(seq, digest, batch.clone()) {
                    return;
                }
                if self.core.log.slot(seq).committed {
                    // late proposal for a slot whose certificate already
                    // arrived: the batch is in place, execution can resume
                    self.try_execute(ctx);
                    return;
                }
                ctx.charge_crypto(CryptoOp::ThresholdShareGen);
                let leader = self.core.leader();
                let me = self.core.me;
                ctx.send(
                    NodeId::Replica(leader),
                    PoeMsg::Support {
                        view,
                        seq,
                        digest,
                        from: me,
                    },
                );
            }
            PoeMsg::Support {
                view,
                seq,
                digest,
                from: r,
            } => {
                let (view, seq, digest, r) = (*view, *seq, *digest, *r);
                if !self.core.gate.admit(from, view, msg) {
                    return;
                }
                ctx.charge_crypto(CryptoOp::ThresholdShareVerify);
                self.record_support(r, seq, digest, ctx);
            }
            PoeMsg::Certify {
                view,
                seq,
                digest,
                shares,
            } => {
                let (view, seq, digest, shares) = (*view, *seq, *digest, *shares);
                if !self.core.gate.admit(from, view, msg) {
                    return;
                }
                if shares < self.core.q.quorum() {
                    return;
                }
                ctx.charge_crypto(CryptoOp::ThresholdVerify);
                self.on_certify(seq, digest, ctx);
            }
            PoeMsg::View(vc) => {
                if let ViewMsg::ViewChange { new_view, from, .. } = vc {
                    if *new_view <= self.core.gate.view() {
                        // the sender is behind: bring it up to date
                        ctx.charge_crypto(CryptoOp::Verify);
                        if let Some(new_view) = self.last_new_view.clone() {
                            ctx.send(NodeId::Replica(*from), PoeMsg::View(new_view));
                        }
                        return;
                    }
                }
                self.on_view_msg(from, vc, ctx);
            }
            PoeMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, _: TimerKind, ctx: &mut Context<'_, PoeMsg>) {
        self.on_view_timer(id, ctx);
    }
}

/// PoE client hooks: 2f+1 matching speculative replies.
pub struct PoeClientProto;

impl ClientProtocol for PoeClientProto {
    type Msg = PoeMsg;
    const SUBMIT: SubmitPolicy = SubmitPolicy::LeaderThenBroadcast;

    fn wrap_request(req: SignedRequest) -> PoeMsg {
        PoeMsg::Request(req)
    }

    fn unwrap_reply(msg: &PoeMsg) -> Option<&Reply> {
        match msg {
            PoeMsg::Reply(r) => Some(r),
            _ => None,
        }
    }

    fn reply_quorum(q: &QuorumRules) -> usize {
        q.quorum() // 2f+1
    }
}

/// Run PoE under a scenario.
pub fn run(scenario: &Scenario, behaviors: &[(ReplicaId, PoeBehavior)]) -> RunOutcome {
    let view_timeout = SimDuration(scenario.network.delta.0 * 4);
    launch::<PoeClientProto, _>(scenario, scenario.n(3 * scenario.f + 1), |me, q, store| {
        let behavior = behaviors
            .iter()
            .find(|(r, _)| *r == me)
            .map_or(PoeBehavior::Honest, |(_, b)| *b);
        PoeReplica::new(me, q, store, behavior, view_timeout, scenario.batch_size)
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
    fn fault_free_speculative_commits() {
        let s = Scenario::small(1).with_load(1, 30);
        let out = run(&s, &[]);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 30);
        let spec = out.log.count(|e| {
            matches!(
                e.obs,
                Observation::Commit {
                    speculative: true,
                    ..
                }
            )
        });
        assert!(spec >= 30 * 4 - 8, "replicas commit speculatively");
        assert_eq!(
            out.log
                .count(|e| matches!(e.obs, Observation::Rollback { .. })),
            0
        );
    }

    #[test]
    fn leader_crash_recovers() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(0), SimTime(4_000_000)));
        let out = run(&s, &[]);
        SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
        assert!(out.log.max_view() >= View(1));
        assert_eq!(accepted(&out), 20);
    }

    #[test]
    fn withheld_certificate_causes_rollback_but_stays_safe() {
        // n = 7 (f = 2). The Byzantine leader certifies slot 3 to replica 1
        // only, then goes silent. Replica 1 executes speculatively; the view
        // change may proceed without replica 1's certificate (we partition
        // it briefly), so the new view assigns slot 3 differently — replica
        // 1 must roll back. Safety must hold throughout.
        let peers: Vec<NodeId> = [0u32, 2, 3, 4, 5, 6]
            .iter()
            .map(|i| NodeId::replica(*i))
            .collect();
        let s = Scenario::small(2)
            .with_load(2, 10)
            .with_faults(FaultPlan::none().isolate(
                NodeId::replica(1),
                peers,
                SimTime(1_000_000),
                SimTime(120_000_000),
            ));
        let out = run(
            &s,
            &[(
                ReplicaId(0),
                PoeBehavior::WithholdCertify {
                    seq: 3,
                    sole_recipient: ReplicaId(1),
                },
            )],
        );
        // replica 0 is Byzantine; replica 1's speculative execution is the
        // one under test and it must reconcile (rollback) — the auditor
        // treats it as correct
        SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
        assert!(out.log.marker_count("withheld-certify") >= 1);
        assert_eq!(accepted(&out), 20, "liveness despite the attack");
    }

    /// Regression for the certificate-outruns-its-proposal escape: with the
    /// leader's traffic strategically held, a `Certify` overtakes the
    /// `Propose` it certifies. Executing the empty placeholder slot used to
    /// skip the slot's requests and diverge honest state (the campaign's
    /// `DivergentState` at these seeds); the slot now waits for its batch.
    #[test]
    fn certificate_outrunning_its_proposal_cannot_skip_the_slot() {
        use crate::registry::ProtocolId;
        use crate::suite::semantic_config;
        use bft_sim::campaign::check_outcome_with_semantics;
        use bft_sim::{AdversarySpec, Attack};

        for (hold_us, prob, seed) in [
            (22_259u64, 0.71, 7u64),
            (21_165, 0.56, 13),
            (10_240, 0.60, 20),
            (30_570, 0.58, 55),
        ] {
            let s = Scenario::small(1)
                .with_load(1, 8)
                .with_seed(seed)
                .with_adversaries(vec![AdversarySpec::new(
                    0,
                    Attack::Delay {
                        hold: SimDuration(hold_us * 1_000),
                        prob,
                    },
                )]);
            let out = run(&s, &[]);
            let semantic = semantic_config(ProtocolId::Poe, &s);
            let violation =
                check_outcome_with_semantics(&out.log, vec![NodeId::replica(0)], 8, &semantic);
            assert_eq!(
                violation, None,
                "seed {seed}: a held proposal must delay its slot, not empty it"
            );
        }
    }

    #[test]
    fn deterministic() {
        let s = Scenario::small(1).with_load(2, 10);
        let a = run(&s, &[]);
        let b = run(&s, &[]);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
    }
}
